// Package storage provides the archive substrate of the paper's workflow
// (Fig. 1): refactored multi-precision fragments and their metadata are
// written to a storage system at data-generation time and fetched
// incrementally at analysis time.
//
// Three layers:
//
//   - Store: a fragment-addressed key-value interface with whole-value
//     and ranged reads, an in-memory implementation (remote-cache
//     semantics) and a directory-backed implementation (one file per
//     variable, fragments re-read at the byte ranges ReadArchiveRanged
//     records).
//
//   - Archive: a container bundling the refactored variables of one
//     dataset — names, grids, value ranges, zero masks, fragments — into a
//     single self-describing blob with per-section checksums, so analysis
//     code can reopen everything a producer wrote.
//
//   - Streaming ingest: ArchiveWriter flushes one variable blob at a time
//     with the manifest as the commit point, and RefactorTo drives the
//     whole refactor-and-pack pipeline in that bounded-memory mode — see
//     writer.go. The on-disk layout ("PQARCH1") is specified in FORMATS.md
//     at the repository root.
package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"progqoi/internal/core"
	"progqoi/internal/encoding"
	"progqoi/internal/progressive"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("storage: not found")

// ErrInvalidKey reports a key outside the safe character set.
var ErrInvalidKey = errors.New("storage: invalid key")

// Store is a minimal fragment store. Every method takes the caller's
// context, so a store backed by real I/O (a directory, an object-store
// bucket, a remote fragment service) honors session cancellation and
// deadlines end to end; in-memory implementations only check ctx.Err().
// A nil ctx is treated as context.Background().
type Store interface {
	// Put writes a value under key (overwrites).
	Put(ctx context.Context, key string, val []byte) error
	// Get reads a value; ErrNotFound when missing.
	Get(ctx context.Context, key string) ([]byte, error)
	// GetRange reads exactly length bytes starting at off within the value
	// stored under key: one fragment off disk, or out of a bucket with one
	// ranged GET, at the range ReadArchiveRanged recorded. Reads past the
	// end of the value fail rather than truncate.
	GetRange(ctx context.Context, key string, off, length int64) ([]byte, error)
	// Keys lists all keys in lexical order.
	Keys(ctx context.Context) ([]string, error)
}

// ctxErr reports the context's cancellation state, tolerating the nil
// context the Store contract allows.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// FetchStats counts a store's cold reads — the fetches that actually went
// to the backing medium rather than a read-through cache. The object-store
// backend exposes them so a serving node can reconcile "bytes pulled from
// the bucket" against its hot-cache miss traffic and its /metrics scrape.
type FetchStats struct {
	// ColdFetches counts Get/GetRange calls served by the backend.
	ColdFetches int64
	// ColdFetchBytes is the payload bytes those fetches carried.
	ColdFetchBytes int64
	// ColdFetchSeconds is the cumulative wall time spent in them.
	ColdFetchSeconds float64
}

// FetchStatser is an optional Store extension reporting cold-fetch
// accounting (see FetchStats). internal/server surfaces it on /metrics.
type FetchStatser interface {
	FetchStats() FetchStats
}

// MemStore is an in-memory Store, safe for concurrent use.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte // guarded by mu
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore { return &MemStore{m: map[string][]byte{}} }

// Put implements Store.
func (s *MemStore) Put(ctx context.Context, key string, val []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return append([]byte(nil), v...), nil
}

// GetRange implements Store.
func (s *MemStore) GetRange(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if off < 0 || length < 0 || off+length > int64(len(v)) {
		return nil, fmt.Errorf("storage: range [%d,%d) outside %q (%d bytes)", off, off+length, key, len(v))
	}
	return append([]byte(nil), v[off:off+length]...), nil
}

// Keys implements Store.
func (s *MemStore) Keys(ctx context.Context) ([]string, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// DirStore keeps each key in its own file under a root directory. Keys are
// restricted to a safe character set to prevent path traversal.
type DirStore struct {
	root string
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{root: root}, nil
}

func validKey(key string) error {
	if key == "" || len(key) > 200 {
		return fmt.Errorf("%w: %q", ErrInvalidKey, key)
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("%w: character %q in %q", ErrInvalidKey, r, key)
		}
	}
	if key[0] == '.' {
		return fmt.Errorf("%w: %q may not start with a dot", ErrInvalidKey, key)
	}
	return nil
}

// Put implements Store.
func (s *DirStore) Put(ctx context.Context, key string, val []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if err := validKey(key); err != nil {
		return err
	}
	tmp := filepath.Join(s.root, key+".tmp")
	if err := os.WriteFile(tmp, val, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.root, key))
}

// Get implements Store.
func (s *DirStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := validKey(key); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(s.root, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return b, err
}

// GetRange implements Store with one positioned read, so a fragment
// fetch costs a pread instead of loading the whole variable file.
func (s *DirStore) GetRange(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := validKey(key); err != nil {
		return nil, err
	}
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("storage: negative range [%d,%d) for %q", off, off+length, key)
	}
	f, err := os.Open(filepath.Join(s.root, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-only
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: range [%d,%d) of %q: %w", off, off+length, key, err)
	}
	return buf, nil
}

// Keys implements Store.
func (s *DirStore) Keys(ctx context.Context) ([]string, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) == ".tmp" {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// archiveMagic identifies the container format.
var archiveMagic = []byte("PQARCH1\n")

// WriteArchive bundles refactored variables into a store under the given
// dataset name: one "<name>.manifest" blob plus one "<name>.<var>.var" blob
// per variable, all CRC-protected. It is ArchiveWriter driven in one call
// over already-refactored variables; RefactorTo is the streaming form that
// never holds the whole dataset in memory.
func WriteArchive(ctx context.Context, st Store, name string, vars []*core.Variable) error {
	w, err := NewArchiveWriter(st, name)
	if err != nil {
		return err
	}
	for _, v := range vars {
		if err := w.WriteVariable(ctx, v); err != nil {
			return err
		}
	}
	return w.Close(ctx)
}

// ReadArchive reopens an archive written by WriteArchive.
func ReadArchive(ctx context.Context, st Store, name string) ([]*core.Variable, error) {
	vars, _, err := ReadArchiveRanged(ctx, st, name)
	return vars, err
}

// ReadArchiveRanged reopens an archive like ReadArchive and additionally
// returns, for every variable, the byte range of each fragment payload
// within the raw store blob. It is the one pass over an archive: one Get
// per blob, one CRC check, and ranges[i][j] locates fragment j of vars[i]
// inside the blob stored under VarKey(name, vars[i].Name), so a consumer
// that drops the payloads can re-read any one with Store.GetRange.
func ReadArchiveRanged(ctx context.Context, st Store, name string) (vars []*core.Variable, ranges [][]FragmentRange, err error) {
	mraw, err := st.Get(ctx, name+".manifest")
	if err != nil {
		return nil, nil, err
	}
	manifest, err := encoding.CheckCRC(mraw)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: manifest: %w", err)
	}
	if len(manifest) < len(archiveMagic)+4 || string(manifest[:len(archiveMagic)]) != string(archiveMagic) {
		return nil, nil, fmt.Errorf("%w: bad archive magic", encoding.ErrCorrupt)
	}
	off := len(archiveMagic)
	n := int(binary.LittleEndian.Uint32(manifest[off:]))
	off += 4
	// Every variable takes at least its 4-byte name section, so a count
	// the bytes left cannot hold is refused before anything is allocated.
	if n < 0 || n > 1<<16 || n > (len(manifest)-off)/4 {
		return nil, nil, fmt.Errorf("%w: %d variables in a %d-byte manifest", encoding.ErrCorrupt, n, len(manifest))
	}
	vars = make([]*core.Variable, n)
	ranges = make([][]FragmentRange, n)
	for i := 0; i < n; i++ {
		nameB, m, err := encoding.GetSection(manifest[off:])
		if err != nil {
			return nil, nil, err
		}
		off += m
		key := VarKey(name, string(nameB))
		raw, err := st.Get(ctx, key)
		if err != nil {
			return nil, nil, err
		}
		blob, err := encoding.CheckCRC(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("storage: %s: %w", key, err)
		}
		v, err := DecodeVariable(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("storage: %s: %w", key, err)
		}
		if v.Name != string(nameB) {
			return nil, nil, fmt.Errorf("%w: variable blob name %q != manifest %q", encoding.ErrCorrupt, v.Name, nameB)
		}
		// DecodeVariable aliases every payload into blob, so a payload
		// starts as many bytes into blob as its capacity falls short of
		// blob's.
		fr := make([]FragmentRange, len(v.Ref.Fragments))
		for j, p := range v.Ref.Fragments {
			fr[j] = FragmentRange{Off: int64(cap(blob) - cap(p)), Len: int64(len(p))}
		}
		vars[i], ranges[i] = v, fr
	}
	return vars, ranges, nil
}

// VarKey returns the store key of one variable's blob within an archive,
// as written by WriteArchive.
func VarKey(dataset, variable string) string {
	return fmt.Sprintf("%s.%s.var", dataset, variable)
}

// FragmentRange locates one fragment payload inside a stored variable blob
// (the raw store value, CRC trailer included in the blob but not in the
// range).
type FragmentRange struct {
	Off int64
	Len int64
}

// EncodeVariable serializes one refactored variable — name, range, zero
// mask, progressive representation — into a standalone blob readable by
// DecodeVariable. It is the body of every archive variable blob, and the
// fragment service uses it (with fragment payloads stripped) to ship
// retrieval metadata to remote clients. The blob is written once, into a
// buffer of its exact size with encoding.CRCSize bytes to spare, so
// encoding.AppendCRC frames it without a copy.
func EncodeVariable(v *core.Variable) []byte {
	maskLen := 0
	if v.ZeroMask != nil {
		maskLen = 4 + (len(v.ZeroMask)+7)/8
	}
	refLen := v.Ref.MarshalSize()
	size := 4 + len(v.Name) + 4 + 8 + 4 + maskLen + 4 + refLen
	out := make([]byte, 0, size+encoding.CRCSize)
	out = encoding.PutSection(out, []byte(v.Name))
	out = binary.LittleEndian.AppendUint32(out, 8)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.Range))
	out = binary.LittleEndian.AppendUint32(out, uint32(maskLen))
	out = appendMask(out, v.ZeroMask)
	out = binary.LittleEndian.AppendUint32(out, uint32(refLen))
	return v.Ref.AppendMarshal(out)
}

// DecodeVariable parses an EncodeVariable blob. Like progressive.Unmarshal,
// it copies no payload: each of the variable's fragments is a subslice of
// blob whose capacity runs to the end of blob's, so a fragment starts
// cap(blob) − cap(fragment) bytes into blob. ReadArchiveRanged takes its
// ranges from that.
func DecodeVariable(blob []byte) (*core.Variable, error) {
	nameB, n, err := encoding.GetSection(blob)
	if err != nil {
		return nil, err
	}
	off := n
	rb, n, err := encoding.GetSection(blob[off:])
	if err != nil {
		return nil, err
	}
	if len(rb) != 8 {
		return nil, fmt.Errorf("%w: range field size %d", encoding.ErrCorrupt, len(rb))
	}
	off += n
	maskB, n, err := encoding.GetSection(blob[off:])
	if err != nil {
		return nil, err
	}
	off += n
	refB, n, err := encoding.GetSection(blob[off:])
	if err != nil {
		return nil, err
	}
	if off += n; off != len(blob) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the variable", encoding.ErrCorrupt, len(blob)-off)
	}
	ref, err := progressive.Unmarshal(refB)
	if err != nil {
		return nil, err
	}
	mask, err := unpackMask(maskB, ref.NumElements())
	if err != nil {
		return nil, err
	}
	return &core.Variable{
		Name:     string(nameB),
		Range:    math.Float64frombits(binary.LittleEndian.Uint64(rb)),
		ZeroMask: mask,
		Ref:      ref,
	}, nil
}

// appendMask appends a bool slice as count + bitmap (nothing when nil).
func appendMask(dst []byte, mask []bool) []byte {
	if mask == nil {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(mask)))
	for i := 0; i < len(mask); i += 8 {
		var b byte
		for j, m := range mask[i:min(i+8, len(mask))] {
			if m {
				b |= 1 << uint(j)
			}
		}
		dst = append(dst, b)
	}
	return dst
}

func unpackMask(b []byte, wantLen int) ([]bool, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: mask header", encoding.ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n != wantLen {
		return nil, fmt.Errorf("%w: mask length %d, want %d", encoding.ErrCorrupt, n, wantLen)
	}
	if len(b) != 4+(n+7)/8 {
		return nil, fmt.Errorf("%w: mask bitmap size %d", encoding.ErrCorrupt, len(b)-4)
	}
	if n%8 != 0 && b[len(b)-1]>>uint(n%8) != 0 {
		return nil, fmt.Errorf("%w: mask padding bits set", encoding.ErrCorrupt)
	}
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = b[4+i/8]>>uint(i%8)&1 == 1
	}
	return mask, nil
}
