// catalog.go — the served datasets and the read path under them: the
// catalog snapshot a reload swaps, each dataset's wire artifacts built once
// per load, and the hot cache → store read of one fragment.

package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"progqoi/internal/core"
	"progqoi/internal/storage"
)

// dataset is one loaded archive with its precomputed wire artifacts.
// Fragment payloads are dropped after loading; fragLocs locates each one
// inside its variable's store blob for on-demand ranged reads. A dataset
// is immutable once loaded: hot publish builds new datasets and swaps the
// catalog that maps names to them.
type dataset struct {
	name string
	// gen is the catalog load generation that produced this dataset; it
	// prefixes hot-cache keys so a republished dataset can never be served
	// stale fragment bytes cached under its previous incarnation.
	gen int64
	// fingerprint identifies the dataset's stored bytes: the metadata
	// blob's tag followed by every fragment's, all taken from the one
	// read of each blob that built the dataset. Reload reuses the previous
	// incarnation verbatim — same object, same gen, same warm cache slice
	// — when it matches.
	fingerprint string
	vars        []*core.Variable // metadata only: fragment payloads dropped
	varIdx      map[string]int
	index       negotiated // JSON Index
	meta        negotiated // EncodeMeta blob
	fragTags    [][]string
	varKeys     []string
	fragLocs    [][]storage.FragmentRange
}

// catalog is one immutable snapshot of the served datasets. Handlers load
// it once per request; Reload installs a replacement with a single atomic
// pointer swap, so in-flight requests (and remote sessions that planned
// against the old metadata) keep working against the snapshot they saw.
type catalog struct {
	datasets map[string]*dataset
	names    []string // sorted
}

// ReloadResult reports one successful hot publish: the dataset names now
// served and the delta against the previous catalog.
type ReloadResult struct {
	Datasets []string `json:"datasets"`
	Added    []string `json:"added"`
	Removed  []string `json:"removed"`
}

// loadCatalog scans the store and loads every archive into a fresh catalog
// snapshot. Any invalid dataset fails the whole load — a reload must be
// all-or-nothing so a torn or corrupt publish can never evict the healthy
// catalog already being served. prev (nil at startup) is the catalog being
// replaced: a dataset whose stored bytes are unchanged is carried over
// verbatim, keeping its cache generation warm and its identity stable for
// sessions mid-retrieval.
func (s *Server) loadCatalog(ctx context.Context, prev *catalog) (*catalog, error) {
	keys, err := s.store.Keys(ctx)
	if err != nil {
		return nil, fmt.Errorf("server: list store: %w", err)
	}
	cat := &catalog{datasets: map[string]*dataset{}}
	for _, k := range keys {
		name, ok := strings.CutSuffix(k, ".manifest")
		if !ok {
			continue
		}
		var old *dataset
		if prev != nil {
			old = prev.datasets[name]
		}
		ds, err := s.loadDataset(ctx, name, old)
		if err != nil {
			return nil, err
		}
		cat.datasets[name] = ds
		cat.names = append(cat.names, name)
	}
	sort.Strings(cat.names)
	return cat, nil
}

// loadDataset reads one archive in a single pass — one store Get per blob
// — and takes its wire artifacts, fragment ETags, byte offsets and
// fingerprint from those same bytes, then drops the fragment payloads. A
// blob republished mid-load therefore cannot pair one read's ETags with
// another's fingerprint. The archive is always re-validated in full
// (startup-equivalent checks); but when its stored bytes fingerprint the
// same as prev, prev is returned instead of the rebuild, so an unchanged
// dataset keeps its load generation — and with it the hot-cache slice and
// the object identity in-flight retrievals depend on.
func (s *Server) loadDataset(ctx context.Context, name string, prev *dataset) (*dataset, error) {
	vars, locs, err := storage.ReadArchiveRanged(ctx, s.store, name)
	if err != nil {
		return nil, fmt.Errorf("server: load dataset %q: %w", name, err)
	}
	ds := &dataset{name: name, gen: s.gen.Add(1), vars: vars, varIdx: map[string]int{}, fragLocs: locs}
	idx, err := json.Marshal(BuildIndex(name, vars))
	if err != nil {
		return nil, err
	}
	ds.index = newNegotiated(idx)
	ds.meta = newNegotiated(EncodeMeta(vars))
	ds.fragTags = make([][]string, len(vars))
	ds.varKeys = make([]string, len(vars))
	var fingerprint strings.Builder
	fingerprint.WriteString(ds.meta.tag)
	for vi, v := range vars {
		ds.varIdx[v.Name] = vi
		ds.varKeys[vi] = storage.VarKey(name, v.Name)
		tags := make([]string, len(v.Ref.Fragments))
		for fi, f := range v.Ref.Fragments {
			tags[fi] = etag(f)
			fingerprint.WriteString(tags[fi])
			// Loading is the only time the payload is resident: serving
			// pulls it back through the hot cache at its recorded range.
			v.Ref.Fragments[fi] = nil
		}
		ds.fragTags[vi] = tags
	}
	ds.fingerprint = fingerprint.String()
	if prev != nil && prev.fingerprint == ds.fingerprint {
		return prev, nil
	}
	return ds, nil
}

// Reload re-scans the store with startup-equivalent validation and
// atomically swaps the serving catalog. Datasets whose stored bytes are
// unchanged are carried over verbatim (same generation, warm cache);
// changed or new ones load under fresh cache generations. On any error
// the old catalog stays installed and the failure is counted. Concurrent
// Reloads serialize.
func (s *Server) Reload(ctx context.Context) (ReloadResult, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.cat.Load()
	cat, err := s.loadCatalog(ctx, old)
	if err != nil {
		s.reloadFailures.Add(1)
		return ReloadResult{}, err
	}
	s.cat.Store(cat)
	s.reloads.Add(1)
	s.datasetsLoaded.Add(int64(len(cat.names)))
	res := ReloadResult{Datasets: append([]string(nil), cat.names...), Added: []string{}, Removed: []string{}}
	for _, n := range cat.names {
		if old.datasets[n] == nil {
			res.Added = append(res.Added, n)
		}
	}
	for _, n := range old.names {
		if cat.datasets[n] == nil {
			res.Removed = append(res.Removed, n)
		}
	}
	return res, nil
}

// fragment returns one fragment payload: hot-cache hit, or a ranged store
// read verified against the fragment's recorded ETag. Cache keys carry the
// dataset's load generation, so a republished dataset starts from a cold
// slice of the cache instead of inheriting its predecessor's bytes (stale
// entries age out of the LRU).
func (s *Server) fragment(ctx context.Context, ds *dataset, vi, fi int) ([]byte, error) {
	key := strconv.FormatInt(ds.gen, 10) + "\x00" + ds.vars[vi].Name + "\x00" + strconv.Itoa(fi)
	if b, ok := s.hot.Get(key); ok {
		return b, nil
	}
	loc := ds.fragLocs[vi][fi]
	b, err := s.store.GetRange(ctx, ds.varKeys[vi], loc.Off, loc.Len)
	if err != nil {
		return nil, fmt.Errorf("server: read fragment %s/%s/%d: %w", ds.name, ds.vars[vi].Name, fi, err)
	}
	if got := etag(b); got != ds.fragTags[vi][fi] {
		return nil, fmt.Errorf("server: fragment %s/%s/%d corrupt at rest: etag %s, recorded %s",
			ds.name, ds.vars[vi].Name, fi, got, ds.fragTags[vi][fi])
	}
	s.hot.Add(key, b)
	return b, nil
}

// etag builds a strong validator from content checksum + length.
func etag(b []byte) string {
	return fmt.Sprintf("\"%08x-%x\"", crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)), len(b))
}

// negotiated is a catalog payload that is not already entropy-coded (the
// index JSON, the metadata blob) in both encodings the transport offers.
// It is immutable per catalog load, like its ETags, so the gzip bytes are
// built once there: no request constructs a compressor.
type negotiated struct {
	body, gz   []byte
	tag, gzTag string // strong validators, unique per representation
}

func newNegotiated(body []byte) negotiated {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(body) //nolint:errcheck // bytes.Buffer writes cannot fail
	zw.Close()     //nolint:errcheck
	tag := etag(body)
	return negotiated{body: body, gz: buf.Bytes(), tag: tag, gzTag: strings.TrimSuffix(tag, "\"") + "-gz\""}
}

// write serves the representation the request accepts; a conditional
// request may name either representation's tag.
func (p *negotiated) write(w http.ResponseWriter, r *http.Request, contentType string) {
	w.Header().Set("Vary", "Accept-Encoding")
	if !acceptsGzip(r) {
		if !revalidated(w, r, p.tag, p.gzTag) {
			writeBlob(w, p.body, contentType)
		}
		return
	}
	if !revalidated(w, r, p.gzTag, p.tag) {
		w.Header().Set("Content-Encoding", "gzip")
		writeBlob(w, p.gz, contentType)
	}
}
