package progressive

import (
	"encoding/binary"
	"fmt"
	"math"

	"progqoi/internal/bitplane"
	"progqoi/internal/encoding"
	"progqoi/internal/mgard"
)

// Marshal serializes the representation: a metadata header followed by all
// fragments, each framed. The layout is self-describing and validated by
// Unmarshal.
func (r *Refactored) Marshal() []byte {
	return r.AppendMarshal(make([]byte, 0, r.MarshalSize()))
}

// headerSize is the length of Marshal's header section payload: nine u32
// counts and flags, then the dims, the f64 bounds, the schedule's u32
// pairs and the blocks' u32 triples.
func (r *Refactored) headerSize() int {
	return 4*(9+len(r.Dims)) + 8*(len(r.PrefixBounds)+len(r.SnapshotEBs)+len(r.Schedule)) + 12*len(r.Blocks)
}

// MarshalSize returns len(r.Marshal()) without building it, so a caller can
// size one buffer for the representation and whatever frames it.
func (r *Refactored) MarshalSize() int {
	n := 4 + r.headerSize() + 4 // header section, fragment count
	for _, f := range r.Fragments {
		n += 4 + len(f)
	}
	return n
}

// AppendMarshal appends Marshal's bytes to dst. With MarshalSize bytes of
// spare capacity in dst it allocates nothing.
func (r *Refactored) AppendMarshal(dst []byte) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(r.headerSize()))
	dst = le.AppendUint32(dst, uint32(r.Method))
	dst = le.AppendUint32(dst, uint32(len(r.Dims)))
	for _, d := range r.Dims {
		dst = le.AppendUint32(dst, uint32(d))
	}
	dst = le.AppendUint32(dst, uint32(len(r.PrefixBounds)))
	for _, b := range r.PrefixBounds {
		dst = le.AppendUint64(dst, math.Float64bits(b))
	}
	dst = le.AppendUint32(dst, uint32(len(r.SnapshotEBs)))
	for _, b := range r.SnapshotEBs {
		dst = le.AppendUint64(dst, math.Float64bits(b))
	}
	tail := uint32(0)
	if r.HasTail {
		tail = 1
	}
	dst = le.AppendUint32(dst, tail)
	dst = le.AppendUint32(dst, uint32(r.Basis))
	dst = le.AppendUint32(dst, uint32(r.Planes))
	dst = le.AppendUint32(dst, uint32(len(r.Schedule)))
	for _, s := range r.Schedule {
		dst = le.AppendUint32(dst, uint32(s.Group))
		dst = le.AppendUint32(dst, uint32(s.Plane))
	}
	dst = le.AppendUint32(dst, uint32(len(r.Blocks)))
	for _, blk := range r.Blocks {
		dst = le.AppendUint32(dst, uint32(blk.N))
		dst = le.AppendUint32(dst, uint32(int32(blk.Exp)))
		dst = le.AppendUint32(dst, uint32(blk.B))
	}
	dst = le.AppendUint32(dst, uint32(len(r.Fragments)))
	for _, f := range r.Fragments {
		dst = encoding.PutSection(dst, f)
	}
	return dst
}

// errHeaderTruncated reports a header that ends inside a field, or before
// the entries one of its counts promises.
var errHeaderTruncated = fmt.Errorf("%w: refactored header truncated", encoding.ErrCorrupt)

// Unmarshal parses Marshal output. It accepts exactly the bytes Marshal
// writes: every count is checked against the bytes left before anything
// is allocated for it, and trailing bytes, in the header or after the
// last fragment, are corruption.
//
// The fragments alias data: each payload is a subslice of data whose
// capacity runs to the end of data's, so fragment i starts
// cap(data) − cap(Fragments[i]) bytes into data. Callers rely on this to
// locate payloads without a second parse, and must not modify data while
// the result is in use.
func Unmarshal(data []byte) (*Refactored, error) {
	hdr, n, err := encoding.GetSection(data)
	if err != nil {
		return nil, err
	}
	off := 0
	get32 := func() (uint32, error) {
		if off+4 > len(hdr) {
			return 0, errHeaderTruncated
		}
		v := binary.LittleEndian.Uint32(hdr[off:])
		off += 4
		return v, nil
	}
	get64 := func() (float64, error) {
		if off+8 > len(hdr) {
			return 0, errHeaderTruncated
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(hdr[off:]))
		off += 8
		return v, nil
	}
	// count reads a count of entries of size bytes each, at most limit of
	// them, that the rest of the header must hold; reads of those entries
	// cannot fail.
	count := func(what string, limit uint32, size int) (int, error) {
		c, err := get32()
		if err != nil {
			return 0, err
		}
		if c > limit {
			return 0, fmt.Errorf("%w: %d %s", encoding.ErrCorrupt, c, what)
		}
		if int(c)*size > len(hdr)-off {
			return 0, errHeaderTruncated
		}
		return int(c), nil
	}
	r := &Refactored{}
	m, err := get32()
	if err != nil {
		return nil, err
	}
	r.Method = Method(m)
	if r.Method < PSZ3 || r.Method > PMGARDHB {
		return nil, fmt.Errorf("%w: method %d", encoding.ErrCorrupt, m)
	}
	nd, err := count("dims", 16, 4)
	if err != nil {
		return nil, err
	}
	if nd < 1 {
		return nil, fmt.Errorf("%w: rank %d", encoding.ErrCorrupt, nd)
	}
	r.Dims = make([]int, nd)
	elems := 1
	for i := range r.Dims {
		v, _ := get32()
		if v == 0 || elems > math.MaxInt/int(v) {
			return nil, fmt.Errorf("%w: dim %d of %d", encoding.ErrCorrupt, i, v)
		}
		r.Dims[i] = int(v)
		elems *= int(v)
	}
	np, err := count("prefix bounds", 1<<24, 8)
	if err != nil {
		return nil, err
	}
	r.PrefixBounds = make([]float64, np)
	for i := range r.PrefixBounds {
		r.PrefixBounds[i], _ = get64()
	}
	ns, err := count("snapshot bounds", 1<<16, 8)
	if err != nil {
		return nil, err
	}
	r.SnapshotEBs = make([]float64, ns)
	for i := range r.SnapshotEBs {
		r.SnapshotEBs[i], _ = get64()
	}
	tail, err := get32()
	if err != nil {
		return nil, err
	}
	if tail > 1 {
		return nil, fmt.Errorf("%w: tail flag %d", encoding.ErrCorrupt, tail)
	}
	r.HasTail = tail == 1
	basis, err := get32()
	if err != nil {
		return nil, err
	}
	r.Basis = mgard.Basis(basis)
	planes, err := get32()
	if err != nil {
		return nil, err
	}
	r.Planes = int(planes)
	nsch, err := count("schedule entries", 1<<24, 8)
	if err != nil {
		return nil, err
	}
	r.Schedule = make([]fragRef, nsch)
	for i := range r.Schedule {
		g, _ := get32()
		p, _ := get32()
		r.Schedule[i] = fragRef{Group: int(g), Plane: int(p)}
	}
	nblk, err := count("blocks", 1<<16, 12)
	if err != nil {
		return nil, err
	}
	r.Blocks = make([]*bitplane.Block, nblk)
	for i := range r.Blocks {
		nc, _ := get32()
		exp, _ := get32()
		b, _ := get32()
		if b > 62 {
			return nil, fmt.Errorf("%w: block %d planes %d", encoding.ErrCorrupt, i, b)
		}
		r.Blocks[i] = &bitplane.Block{N: int(nc), Exp: int(int32(exp)), B: int(b)}
	}
	if off != len(hdr) {
		return nil, fmt.Errorf("%w: %d trailing header bytes", encoding.ErrCorrupt, len(hdr)-off)
	}
	// Validate schedule references.
	for _, s := range r.Schedule {
		if s.Group < 0 || s.Group >= len(r.Blocks) || s.Plane < 0 || s.Plane >= r.Blocks[s.Group].B {
			return nil, fmt.Errorf("%w: schedule entry %v out of range", encoding.ErrCorrupt, s)
		}
	}

	rest := data[n:]
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: fragment count truncated", encoding.ErrCorrupt)
	}
	nfrag := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if len(r.PrefixBounds) != nfrag {
		return nil, fmt.Errorf("%w: %d bounds for %d fragments", encoding.ErrCorrupt, len(r.PrefixBounds), nfrag)
	}
	switch r.Method {
	case PMGARD, PMGARDHB:
		if len(r.Schedule) != nfrag {
			return nil, fmt.Errorf("%w: %d schedule entries for %d fragments", encoding.ErrCorrupt, len(r.Schedule), nfrag)
		}
	}
	if nfrag > len(rest)/4 { // each fragment section has a 4-byte length
		return nil, fmt.Errorf("%w: %d fragments in %d bytes", encoding.ErrCorrupt, nfrag, len(rest))
	}
	r.Fragments = make([][]byte, nfrag)
	for i := range r.Fragments {
		f, m, err := encoding.GetSection(rest)
		if err != nil {
			return nil, err
		}
		r.Fragments[i] = f
		rest = rest[m:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the fragments", encoding.ErrCorrupt, len(rest))
	}
	return r, nil
}
