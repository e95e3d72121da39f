// Package bitplane implements progressive-precision encoding of float64
// coefficient blocks, the mechanism PMGARD-style refactoring uses to serve
// data "from the most to the least significant bit" (paper §II, §V-B).
//
// A block of coefficients shares one binary exponent e chosen so that every
// |v| < 2^e. Magnitudes are converted to B-bit fixed point under that
// exponent and sliced into B bit planes from most to least significant; the
// sign bits travel with the first plane. Retrieving the first k planes
// reconstructs every value with a guaranteed error
//
//	|v − v̂| ≤ 2^e · (2^−k + 2^−B)
//
// which is exactly the per-fragment L∞ bound the QoI retrieval loop consumes.
// Each plane is independently compressed (DEFLATE with a raw fallback) so
// leading all-zero planes cost almost nothing.
package bitplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"progqoi/internal/encoding"
	"progqoi/internal/par"
)

// DefaultPlanes is the default fixed-point width: enough for full double
// precision recovery relative to the block magnitude.
const DefaultPlanes = 60

// ErrBadInput reports non-finite input values.
var ErrBadInput = errors.New("bitplane: input must be finite")

// Block is an encoded coefficient block: per-plane compressed fragments plus
// the shared exponent metadata needed to decode any prefix of planes. A
// decoder reads only N, Exp and B, so a metadata-only block (Signs and
// Planes nil) decodes fragments that travel separately.
type Block struct {
	N      int      // number of coefficients
	Exp    int      // shared exponent: all |v| < 2^Exp (meaningful when N>0 and not all-zero)
	B      int      // total planes available
	Signs  []byte   // compressed sign bitmap (fetched with the first plane)
	Planes [][]byte // compressed magnitude planes, MSB first

	// frags[p] is Fragment(p): Signs and Planes[p] are slices of it.
	frags [][]byte
}

// Fragment returns plane p of a non-zero block EncodeAll built as one
// stored fragment, in encoding sections: the sign bitmap then plane 0 for
// p = 0, plane p alone otherwise. The PMGARD representations store these
// fragments and their reader splits them with encoding.GetSection. The
// bytes are the ones Signs and Planes[p] live in, not a copy.
func (b *Block) Fragment(p int) []byte { return b.frags[p] }

// Encode slices vals into numPlanes bit planes. numPlanes ≤ 62; values must
// be finite. An all-zero block encodes to zero-length planes.
func Encode(vals []float64, numPlanes int) (*Block, error) {
	blocks, err := EncodeAll([][]float64{vals}, numPlanes, 1)
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// EncodeAll is EncodeAllOn over a budget of its own of workers goroutines
// (≤ 1 selects the sequential path).
func EncodeAll(groups [][]float64, numPlanes, workers int) ([]*Block, error) {
	return EncodeAllOn(par.New(max(workers, 1)), groups, numPlanes)
}

// EncodeAllOn encodes several coefficient groups at once in three stages
// on budget b: prepare each group, slice all planes of each coefficient
// chunk in one pass, compress each fragment. Every task writes only bytes
// no other task touches, so the output blocks are bit-identical to calling
// Encode per group — only the schedule changes. This is the encode-side
// mirror of the Reader's decode path.
//
// A call takes one magnitude buffer and one byte slab (every group's sign
// bitmap and raw planes) from package pools and returns them when its
// fragments are compressed, so a pack encoding one variable after another
// reuses the same two buffers.
func EncodeAllOn(b *par.Budget, groups [][]float64, numPlanes int) ([]*Block, error) {
	if numPlanes <= 0 || numPlanes > 62 {
		return nil, fmt.Errorf("bitplane: numPlanes %d outside (0,62]", numPlanes)
	}
	// Lay the groups out in the two buffers: magnitudes at magOff, the sign
	// bitmap at signOff and plane p at planeOff + p·stride. slicePlanes
	// writes byte j of all planes in turn. Spacing the planes an odd number
	// of cache lines apart puts those bytes in different L1 sets; at a
	// power-of-two distance (nb = 28 KiB for the finest group of a 64³
	// field) they would evict each other.
	type layout struct{ magOff, signOff, planeOff, stride int }
	lay := make([]layout, len(groups))
	nmag, nbyte := 0, 0
	for gi, vals := range groups {
		nb := (len(vals) + 7) / 8
		stride := (nb+63)&^63 | 64
		nbyte = (nbyte + 63) &^ 63
		lay[gi] = layout{magOff: nmag, planeOff: nbyte, stride: stride, signOff: nbyte + numPlanes*stride}
		nmag += len(vals)
		nbyte += numPlanes*stride + nb
	}
	magBuf, byteBuf := getScratch[uint64](&magPool, nmag), getScratch[byte](&slabPool, nbyte)
	defer magPool.Put(magBuf)
	defer slabPool.Put(byteBuf)
	mags, slab := *magBuf, *byteBuf
	clear(slab) // slicePlanes skips zero words and prepare ORs in the signs

	blocks := make([]*Block, len(groups))
	errs := make([]error, len(groups))
	// Stage 1: per-group fixed-point conversion (exponent, magnitudes,
	// sign bitmap).
	b.For(len(groups), func(_, gi int) bool {
		l, n := lay[gi], len(groups[gi])
		blocks[gi], errs[gi] = prepare(groups[gi], numPlanes, mags[l.magOff:l.magOff+n], slab[l.signOff:l.signOff+(n+7)/8])
		return true
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Stage 2: the raw bitmaps of every plane of every non-zero group, one
	// task per sliceChunk coefficients so the finest group (7/8 of a
	// decomposition) spreads over the pool. Chunks start on a multiple of 8
	// coefficients and therefore write disjoint bytes of every plane.
	// Stage 3: one task per stored fragment — every magnitude plane, the
	// sign bitmap riding with plane 0 — compressed into its own slot, so
	// the merge is deterministic.
	type chunk struct{ gi, lo, hi int }
	type task struct{ gi, p int }
	var chunks []chunk
	var tasks []task
	raws := make([][][]byte, len(groups))
	for gi, blk := range blocks {
		if blk.Exp == math.MinInt32 {
			continue // all-zero block: no fragments at all
		}
		blk.Planes = make([][]byte, numPlanes)
		blk.frags = make([][]byte, numPlanes)
		nb := (blk.N + 7) / 8
		l := lay[gi]
		raws[gi] = make([][]byte, numPlanes)
		for p := range raws[gi] {
			lo := l.planeOff + p*l.stride
			raws[gi][p] = slab[lo : lo+nb : lo+nb]
		}
		for lo := 0; lo < blk.N; lo += sliceChunk {
			chunks = append(chunks, chunk{gi, lo, min(lo+sliceChunk, blk.N)})
		}
		for p := 0; p < numPlanes; p++ {
			tasks = append(tasks, task{gi, p})
		}
	}
	b.For(len(chunks), func(_, ci int) bool {
		c := chunks[ci]
		l := lay[c.gi]
		slicePlanes(mags[l.magOff:l.magOff+blocks[c.gi].N], raws[c.gi], c.lo, c.hi)
		return true
	})
	terrs := make([]error, len(tasks))
	b.For(len(tasks), func(_, ti int) bool {
		t := tasks[ti]
		blk := blocks[t.gi]
		in := raws[t.gi][t.p : t.p+1]
		if t.p == 0 {
			l := lay[t.gi]
			in = [][]byte{slab[l.signOff : l.signOff+len(in[0])], in[0]}
		}
		frag, err := encoding.AppendTaggedSections(nil, in...)
		if err != nil {
			terrs[ti] = err
			return true
		}
		blk.frags[t.p] = frag
		if t.p == 0 {
			n := 4 + int(binary.LittleEndian.Uint32(frag)) // the sign section
			blk.Signs, frag = frag[4:n], frag[n:]
		}
		blk.Planes[t.p] = frag[4:]
		return true
	})
	for _, err := range terrs {
		if err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// magPool and slabPool hold EncodeAllOn's magnitude buffers and byte
// slabs between calls, as *[]uint64 and *[]byte. Every fragment is
// compressed or copied out of the slab, so nothing a call returns aliases
// them.
var magPool, slabPool sync.Pool

// getScratch returns a pooled buffer of n elements, or a new one when the
// pool holds none large enough. Its contents are whatever the last user
// left.
func getScratch[T any](pool *sync.Pool, n int) *[]T {
	if buf, ok := pool.Get().(*[]T); ok && cap(*buf) >= n {
		*buf = (*buf)[:n]
		return buf
	}
	buf := make([]T, n)
	return &buf
}

// prepare runs the sequential head of the encode: validation, shared
// exponent, and the fixed-point magnitudes and sign bitmap, written into
// mags (len(vals) values) and signBits (zero on entry). All-zero (or
// empty) groups come back with Exp = math.MinInt32 and mags untouched.
func prepare(vals []float64, numPlanes int, mags []uint64, signBits []byte) (*Block, error) {
	maxAbs := 0.0
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrBadInput
		}
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	b := &Block{N: len(vals), B: numPlanes}
	if len(vals) == 0 || maxAbs == 0 {
		b.Exp = math.MinInt32 // marks the all-zero block; Bound() treats it as 0
		return b, nil
	}
	// Choose e with maxAbs < 2^e (frexp: maxAbs = f·2^exp, f ∈ [0.5,1)).
	_, exp := math.Frexp(maxAbs)
	b.Exp = exp
	scale := math.Ldexp(1, numPlanes-exp) // 2^(B-e)

	// Fixed-point magnitudes and signs.
	limit := (uint64(1) << uint(numPlanes)) - 1
	for i, v := range vals {
		if v < 0 {
			signBits[i/8] |= 1 << uint(i%8)
		}
		m := uint64(math.Abs(v) * scale) // floor; |v|·2^(B-e) < 2^B
		if m > limit {
			m = limit // guards the v == maxAbs boundary under rounding
		}
		mags[i] = m
	}
	return b, nil
}

// sliceChunk is the number of coefficients one slicing task covers: 1 KiB
// of every plane, and a multiple of 8.
const sliceChunk = 8192

// slicePlanes writes coefficients [lo, hi) of every bit plane of mags into
// planes (planes[p] is the MSB-first plane p, zero on entry) in one pass
// over the magnitudes, 8 at a time: an 8×8 byte transpose packs byte k of
// each into one word, and an 8×8 bit transpose of that word yields one
// output byte for each of planes 8k..8k+7 (counted from the least
// significant). lo must be a multiple of 8. Pure function of its arguments,
// so chunk tasks can run on any goroutine in any order.
func slicePlanes(mags []uint64, planes [][]byte, lo, hi int) {
	top := len(planes) - 1 // the plane of bit 0
	for i := lo; i < hi; i += 8 {
		var m [8]uint64
		copy(m[:], mags[i:min(i+8, hi)])
		// Byte transpose, m[k] byte r ← m[r] byte k: swap the off-diagonal
		// 1×1 blocks of every 2×2, then 2×2 of 4×4, then 4×4 of the 8×8.
		// Rows, bytes and bits all count from the least significant end.
		for q := 0; q < 8; q += 2 {
			t := (m[q]>>8 ^ m[q+1]) & 0x00ff00ff00ff00ff
			m[q+1] ^= t
			m[q] ^= t << 8
		}
		for _, q := range [4]int{0, 1, 4, 5} {
			t := (m[q]>>16 ^ m[q+2]) & 0x0000ffff0000ffff
			m[q+2] ^= t
			m[q] ^= t << 16
		}
		for q := 0; q < 4; q++ {
			t := (m[q]>>32 ^ m[q+4]) & 0x00000000ffffffff
			m[q+4] ^= t
			m[q] ^= t << 32
		}
		j := i >> 3
		for k := 0; 8*k <= top; k++ {
			x := m[k]
			if x == 0 {
				continue
			}
			// The same three steps on bits (Hacker's Delight §7-3): byte c
			// of x becomes bit 8k+c of the 8 magnitudes.
			t := (x ^ x>>7) & 0x00aa00aa00aa00aa
			x ^= t ^ t<<7
			t = (x ^ x>>14) & 0x0000cccc0000cccc
			x ^= t ^ t<<14
			t = (x ^ x>>28) & 0x00000000f0f0f0f0
			x ^= t ^ t<<28
			p := top - 8*k // the plane of bit 8k
			for c := 0; c < 8 && c <= p; c++ {
				planes[p-c][j] = byte(x >> uint(8*c))
			}
		}
	}
}

// Bound returns the guaranteed L∞ reconstruction error after applying the
// first k planes (0 ≤ k ≤ B). For k = 0 the bound is 2^Exp (values unknown,
// reconstructed as zero). All-zero blocks have bound 0 for any k.
func (b *Block) Bound(k int) float64 {
	if b.N == 0 || b.Exp == math.MinInt32 {
		return 0
	}
	if k < 0 {
		k = 0
	}
	if k >= b.B {
		return math.Ldexp(1, b.Exp-b.B) // truncation only
	}
	return math.Ldexp(1, b.Exp-k) + math.Ldexp(1, b.Exp-b.B)
}

// PlaneSize returns the stored byte size of plane p, including the sign
// fragment for p = 0. This is the retrieval cost accounting unit.
func (b *Block) PlaneSize(p int) int {
	if b.Exp == math.MinInt32 {
		return 0
	}
	n := len(b.Planes[p])
	if p == 0 {
		n += len(b.Signs)
	}
	return n
}

// narrowPlanes is the number of leading planes a Decoder holds in uint32
// magnitudes before it widens them to uint64.
const narrowPlanes = 32

// Decoder incrementally reconstructs a block as planes arrive. It holds
// its magnitudes as uint32 while every plane reserved is below
// narrowPlanes: narrow[i] is the magnitude shifted right by
// max(B−narrowPlanes, 0), which drops no bit of those planes. Reserve
// widens them to uint64, in wide, when a later plane is about to arrive.
type Decoder struct {
	blk     *Block
	narrow  []uint32 // nil once widened
	wide    []uint64 // nil until widened
	signs   []byte
	applied int
}

// NewDecoder prepares incremental decoding of b.
func NewDecoder(b *Block) *Decoder {
	return &Decoder{blk: b, narrow: make([]uint32, b.N)}
}

// Applied returns the number of planes applied so far.
func (d *Decoder) Applied() int { return d.applied }

// shift is how far the narrow magnitudes sit below the full ones.
func (d *Decoder) shift() uint { return uint(max(d.blk.B-narrowPlanes, 0)) }

// Reserve readies the decoder for OrPlane of every plane below k. The
// first Reserve past plane narrowPlanes−1 widens the magnitudes to
// uint64; before that it does nothing. It must not run concurrently with
// OrPlane, so a caller reserves each group's planes before its OrPlane
// stage.
func (d *Decoder) Reserve(k int) {
	if d.wide != nil || min(k, d.blk.B) <= narrowPlanes {
		return
	}
	d.wide = make([]uint64, len(d.narrow))
	s := d.shift()
	for i, m := range d.narrow {
		d.wide[i] = uint64(m) << s
	}
	d.narrow = nil
}

// ValuesAt writes the current approximation of coefficients [lo,
// lo+len(out)) into out: zeros with no planes committed (bound 2^Exp), and
// without a sign bitmap installed every value non-negative.
func (d *Decoder) ValuesAt(out []float64, lo int) {
	if d.applied == 0 || d.blk.Exp == math.MinInt32 {
		clear(out)
		return
	}
	inv := math.Ldexp(1, d.blk.Exp-d.blk.B) // 2^(e-B)
	if d.wide != nil {
		valuesAt(out, d.wide[lo:lo+len(out)], d.signs, lo, 0, inv)
		return
	}
	valuesAt(out, d.narrow[lo:lo+len(out)], d.signs, lo, d.shift(), inv)
}

// valuesAt is ValuesAt's kernel over either magnitude width: out[i] is
// (mags[i] << shift) · inv, negated where bit lo+i of signs is set. Every
// magnitude is below 2^62, so converting it through int64 rounds exactly
// as through uint64, and the narrow and wide paths give the same bits.
func valuesAt[M uint32 | uint64](out []float64, mags []M, signs []byte, lo int, shift uint, inv float64) {
	shift &= 63
	val := func(m M) float64 { return float64(int64(uint64(m)<<shift)) * inv }
	if signs == nil {
		for i, m := range mags {
			out[i] = val(m)
		}
		return
	}
	// Every magnitude times inv is ≥ 0, so negating it sets its sign bit:
	// a bitmap byte's 8 signs go straight into 8 values, branch-free.
	neg := func(v float64, sign uint64) float64 {
		return math.Float64frombits(math.Float64bits(v) | sign<<63)
	}
	sign := func(j int) uint64 { return uint64(signs[j>>3] >> uint(j&7) & 1) }
	i := 0
	for ; i < len(out) && (lo+i)&7 != 0; i++ { // unaligned head
		out[i] = neg(val(mags[i]), sign(lo+i))
	}
	for ; i+8 <= len(out); i += 8 {
		s := uint64(signs[(lo+i)>>3])
		m, o := mags[i:i+8:i+8], out[i:i+8:i+8]
		o[0] = neg(val(m[0]), s&1)
		o[1] = neg(val(m[1]), s>>1&1)
		o[2] = neg(val(m[2]), s>>2&1)
		o[3] = neg(val(m[3]), s>>3&1)
		o[4] = neg(val(m[4]), s>>4&1)
		o[5] = neg(val(m[5]), s>>5&1)
		o[6] = neg(val(m[6]), s>>6&1)
		o[7] = neg(val(m[7]), s>>7)
	}
	for ; i < len(out); i++ { // tail
		out[i] = neg(val(mags[i]), sign(lo+i))
	}
}

// Bound returns the current guaranteed L∞ error of ValuesAt's output.
func (d *Decoder) Bound() float64 { return d.blk.Bound(d.applied) }

// Decoding is three steps (RawBitmap → Reserve, OrPlane and SetSigns →
// CommitPlanes), so a caller can decompress fragments and apply bit planes
// with its own worker pool: RawBitmap of each new plane (and of the signs
// with the first), Reserve past the last new plane, OrPlane over the
// coefficient range, then CommitPlanes. Any interleaving of disjoint
// OrPlane ranges produces bit-identical magnitudes because plane
// application only ORs independent bits.

// RawBitmap decompresses one of the block's compressed fragments (a
// magnitude plane or the sign fragment) into its raw bitmap of
// ceil(N/8) bytes, in a new buffer. It does not touch decoder state and is
// safe to call concurrently.
func (b *Block) RawBitmap(frag []byte) ([]byte, error) {
	return b.RawBitmapInto(frag, nil)
}

// RawBitmapInto is RawBitmap for a caller that keeps a buffer: a DEFLATE
// fragment is inflated into *scratch, grown when it is too small, and
// *scratch is left holding it (encoding.GetTaggedInto). A raw fragment's
// bitmap is a view of frag and leaves *scratch alone.
func (b *Block) RawBitmapInto(frag []byte, scratch *[]byte) ([]byte, error) {
	return encoding.GetTaggedInto(frag, (b.N+7)/8, scratch)
}

// OrPlane ORs the raw bitmap of plane p into the decoder's magnitudes for
// coefficients [lo, hi). A plane at index narrowPlanes or later needs a
// Reserve past it first. Callers running concurrent OrPlane calls must
// keep their ranges disjoint; planes of the same range may be applied in
// any order. Applied() is unchanged until CommitPlanes.
func (d *Decoder) OrPlane(p int, raw []byte, lo, hi int) {
	bit := d.blk.B - 1 - p
	if d.wide != nil {
		orPlane(d.wide, raw, uint(bit), lo, hi)
		return
	}
	if p >= narrowPlanes {
		panic(fmt.Sprintf("bitplane: OrPlane of plane %d before Reserve", p))
	}
	orPlane(d.narrow, raw, uint(bit)-d.shift(), lo, hi)
}

// orPlane is OrPlane's kernel over either magnitude width.
func orPlane[M uint32 | uint64](mags []M, raw []byte, bit uint, lo, hi int) {
	bit &= 63
	i := lo
	for ; i < hi && i&7 != 0; i++ { // unaligned head, a bit at a time
		mags[i] |= M(raw[i>>3]>>uint(i&7)&1) << bit
	}
	for ; i+8 <= hi; i += 8 { // a byte of bitmap at a time, branch-free
		b := M(raw[i>>3])
		if b == 0 {
			continue
		}
		m := mags[i : i+8 : i+8]
		m[0] |= b & 1 << bit
		m[1] |= b >> 1 & 1 << bit
		m[2] |= b >> 2 & 1 << bit
		m[3] |= b >> 3 & 1 << bit
		m[4] |= b >> 4 & 1 << bit
		m[5] |= b >> 5 & 1 << bit
		m[6] |= b >> 6 & 1 << bit
		m[7] |= b >> 7 << bit
	}
	for ; i < hi; i++ { // unaligned tail
		mags[i] |= M(raw[i>>3]>>uint(i&7)&1) << bit
	}
}

// SetSigns installs the decompressed sign bitmap (RawBitmap of Block.Signs).
func (d *Decoder) SetSigns(raw []byte) { d.signs = raw }

// CommitPlanes records that every plane below k has been fully applied via
// OrPlane, making ValuesAt and Bound reflect them. k past B is clamped;
// committing below the current Applied() is a no-op, so replays of
// already-applied planes (idempotent under OR) are harmless.
func (d *Decoder) CommitPlanes(k int) {
	if k > d.blk.B {
		k = d.blk.B
	}
	if k > d.applied {
		d.applied = k
	}
}
