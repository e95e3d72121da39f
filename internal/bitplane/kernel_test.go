package bitplane

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"progqoi/internal/encoding"
)

// refSlicePlane is the per-plane loop EncodeAll ran before the one-pass
// transposed kernel: one branchy pass over the magnitudes for each plane.
// It survives here as the differential reference for slicePlanes.
func refSlicePlane(mags []uint64, n, numPlanes, p int) []byte {
	bit := uint(numPlanes - 1 - p)
	raw := make([]byte, (n+7)/8)
	for i, m := range mags {
		if m>>bit&1 == 1 {
			raw[i/8] |= 1 << uint(i%8)
		}
	}
	return raw
}

// refOrPlane is the per-bit loop Decoder.OrPlane and Advance ran before the
// byte-at-a-time kernel.
func refOrPlane(mags []uint64, numPlanes, p int, raw []byte, lo, hi int) {
	bit := uint(numPlanes - 1 - p)
	for i := lo; i < hi; i++ {
		if raw[i/8]>>uint(i%8)&1 == 1 {
			mags[i] |= 1 << bit
		}
	}
}

var (
	kernelSizes  = []int{0, 1, 7, 8, 9, 63, 64, 65, 4097}
	kernelPlanes = []int{1, 7, 8, 9, 59, 60, 62}
)

// kernelMags returns the three magnitude blocks every (N, numPlanes) pair is
// checked on: random (with random leading-zero runs, like real coefficient
// groups), all-zero and all-max.
func kernelMags(rng *rand.Rand, n, numPlanes int) map[string][]uint64 {
	limit := uint64(1)<<uint(numPlanes) - 1
	random, zero, full := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range random {
		random[i] = rng.Uint64() & limit >> uint(rng.Intn(numPlanes+1))
		full[i] = limit
	}
	return map[string][]uint64{"random": random, "zero": zero, "max": full}
}

// cuts returns a few split points of [0, n) including unaligned ones.
func cuts(rng *rand.Rand, n int, aligned bool) []int {
	c := []int{0, n}
	for k := 0; k < 3 && n > 0; k++ {
		x := rng.Intn(n + 1)
		if aligned {
			x &^= 7
		}
		c = append(c, x)
	}
	slices.Sort(c)
	return c
}

// TestKernelsMatchReference: slicePlanes and OrPlane against the loops they
// replaced — byte-equal raw planes (in one call and chunked on 8-aligned
// boundaries) and equal magnitudes after ORing every plane back over
// unaligned [lo, hi) ranges.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range kernelSizes {
		for _, numPlanes := range kernelPlanes {
			for kind, mags := range kernelMags(rng, n, numPlanes) {
				name := fmt.Sprintf("N=%d/B=%d/%s", n, numPlanes, kind)
				nb := (n + 7) / 8
				whole, chunked := make([][]byte, numPlanes), make([][]byte, numPlanes)
				for p := range whole {
					whole[p], chunked[p] = make([]byte, nb), make([]byte, nb)
				}
				slicePlanes(mags, whole, 0, n)
				c := cuts(rng, n, true)
				for k := 0; k+1 < len(c); k++ {
					slicePlanes(mags, chunked, c[k], c[k+1])
				}
				dec := NewDecoder(&Block{N: n, B: numPlanes})
				dec.Reserve(numPlanes)
				ref := make([]uint64, n)
				for p := 0; p < numPlanes; p++ {
					want := refSlicePlane(mags, n, numPlanes, p)
					if !bytes.Equal(whole[p], want) || !bytes.Equal(chunked[p], want) {
						t.Fatalf("%s: plane %d differs from the per-plane reference", name, p)
					}
					c := cuts(rng, n, false)
					for k := 0; k+1 < len(c); k++ {
						dec.OrPlane(p, want, c[k], c[k+1])
					}
					refOrPlane(ref, numPlanes, p, want, 0, n)
				}
				if !slices.Equal(magnitudes(dec), ref) || !slices.Equal(ref, mags) {
					t.Fatalf("%s: decoded magnitudes differ from the per-bit reference", name)
				}
			}
		}
	}
}

// magnitudes returns d's magnitudes at full width, whichever width it
// holds them in.
func magnitudes(d *Decoder) []uint64 {
	if d.wide != nil {
		return slices.Clone(d.wide)
	}
	out := make([]uint64, len(d.narrow))
	for i, m := range d.narrow {
		out[i] = uint64(m) << d.shift()
	}
	return out
}

// refValues is Decoder.Values as it was before ValuesInto: one branch per
// coefficient on its sign bit, over 64-bit magnitudes.
func refValues(d *Decoder) []float64 {
	out := make([]float64, d.blk.N)
	if d.applied == 0 || d.blk.Exp == math.MinInt32 {
		return out
	}
	inv := math.Ldexp(1, d.blk.Exp-d.blk.B)
	for i, m := range magnitudes(d) {
		v := float64(m) * inv
		if d.signs != nil && d.signs[i/8]>>uint(i%8)&1 == 1 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// TestValuesIntoMatchesReference: ValuesAt, into a buffer holding stale
// values and into a fresh one, against the per-coefficient reference
// at 0, 1, some and all planes, for N around multiples of 8, with and
// without a sign bitmap installed.
func TestValuesIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range kernelSizes {
		for _, numPlanes := range []int{1, 9, DefaultPlanes} {
			vals := randVals(rng, n, 1e2)
			for i := range vals {
				if rng.Intn(2) == 0 {
					vals[i] = -vals[i]
				}
			}
			if n > 3 {
				vals[1], vals[2] = 0, math.Copysign(0, -1)
			}
			blk, err := Encode(vals, numPlanes)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, numPlanes / 2, numPlanes} {
				for _, signs := range []bool{true, false} {
					dec := NewDecoder(blk)
					if err := decodeTo(dec, k); err != nil {
						t.Fatal(err)
					}
					if !signs {
						dec.SetSigns(nil)
					}
					out := make([]float64, n+3)
					for i := range out {
						out[i] = math.NaN()
					}
					dec.ValuesAt(out[:n], 0)
					want := refValues(dec)
					if !sameBits(out[:n], want) || !sameBits(values(dec), want) || !math.IsNaN(out[n]) {
						t.Fatalf("N=%d B=%d k=%d signs=%v: values differ from the per-coefficient reference", n, numPlanes, k, signs)
					}
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestOrPlaneStaysInRange: an unaligned OrPlane must not touch a
// coefficient outside [lo, hi) — concurrent callers own disjoint ranges.
func TestOrPlaneStaysInRange(t *testing.T) {
	const n = 100
	raw := bytes.Repeat([]byte{0xff}, (n+7)/8)
	for lo := 0; lo <= 17; lo++ {
		for hi := lo; hi <= n; hi += 7 {
			dec := NewDecoder(&Block{N: n, B: 8})
			dec.OrPlane(3, raw, lo, hi)
			for i, m := range magnitudes(dec) {
				want := uint64(0)
				if i >= lo && i < hi {
					want = 1 << 4
				}
				if m != want {
					t.Fatalf("[%d,%d): coefficient %d = %#x, want %#x", lo, hi, i, m, want)
				}
			}
		}
	}
}

// refEncode is Encode as it was: prepare, then one refSlicePlane pass and
// one tagged fragment per plane.
func refEncode(t *testing.T, vals []float64, numPlanes int) *Block {
	t.Helper()
	mags, signs := make([]uint64, len(vals)), make([]byte, (len(vals)+7)/8)
	blk, err := prepare(vals, numPlanes, mags, signs)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Exp == math.MinInt32 {
		return blk
	}
	if blk.Signs, err = encoding.PutTagged(signs); err != nil {
		t.Fatal(err)
	}
	blk.Planes = make([][]byte, numPlanes)
	for p := range blk.Planes {
		if blk.Planes[p], err = encoding.PutTagged(refSlicePlane(mags, blk.N, numPlanes, p)); err != nil {
			t.Fatal(err)
		}
	}
	return blk
}

// TestEncodeAllMatchesReference: the stored fragments of every group are
// byte-equal to the per-plane reference encode, sequentially and pooled.
func TestEncodeAllMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, numPlanes := range kernelPlanes {
		var groups [][]float64
		for _, n := range kernelSizes {
			random, zero, full := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range random {
				random[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
				full[i] = math.Copysign(math.Nextafter(1, 0), rng.Float64()-0.5)
			}
			groups = append(groups, random, zero, full)
		}
		// One group large enough to be sliced in several chunks.
		big := make([]float64, 2*sliceChunk+77)
		for i := range big {
			big[i] = rng.NormFloat64()
		}
		groups = append(groups, big)
		want := make([]*Block, len(groups))
		for g, vals := range groups {
			want[g] = refEncode(t, vals, numPlanes)
		}
		for _, workers := range []int{1, 3} {
			got, err := EncodeAll(groups, numPlanes, workers)
			if err != nil {
				t.Fatal(err)
			}
			for g := range groups {
				blocksEqual(t, got[g], want[g])
			}
		}
	}
}

// TestInterleavedDecodeKeepsOwnership: the raw bitmaps RawBitmap hands out
// belong to the caller (SetSigns retains one for the decoder's lifetime), so
// decoding a second block in between must not disturb the first — which it
// would if inflate output came from a pool.
func TestInterleavedDecodeKeepsOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, b := randVals(rng, 3000, 1e3), randVals(rng, 3000, 1e-2)
	for i := 0; i < 2000; i++ {
		a[i] = -math.Abs(a[i]) // a long run of set sign bits: the sign fragment deflates
	}
	blkA, err := Encode(a, DefaultPlanes)
	if err != nil {
		t.Fatal(err)
	}
	blkB, err := Encode(b, DefaultPlanes)
	if err != nil {
		t.Fatal(err)
	}
	if blkA.Signs[0] != 1 {
		t.Fatal("test needs a DEFLATE-tagged sign fragment")
	}
	wantA := NewDecoder(blkA)
	if err := decodeTo(wantA, DefaultPlanes); err != nil {
		t.Fatal(err)
	}

	decA, decB := NewDecoder(blkA), NewDecoder(blkB)
	signsA, err := blkA.RawBitmap(blkA.Signs)
	if err != nil {
		t.Fatal(err)
	}
	decA.SetSigns(signsA)
	signsAt := bytes.Clone(signsA)
	signsB, err := blkB.RawBitmap(blkB.Signs)
	if err != nil {
		t.Fatal(err)
	}
	decB.SetSigns(signsB)
	decA.Reserve(DefaultPlanes)
	decB.Reserve(DefaultPlanes)
	var heldA [][]byte // every raw plane of A, re-checked after B is done
	for p := 0; p < DefaultPlanes; p++ {
		for _, s := range []struct {
			blk *Block
			dec *Decoder
		}{{blkA, decA}, {blkB, decB}} {
			raw, err := s.blk.RawBitmap(s.blk.Planes[p])
			if err != nil {
				t.Fatal(err)
			}
			if s.blk.Planes[p][0] == 0 && &raw[0] != &s.blk.Planes[p][1] {
				t.Fatalf("plane %d: a raw-tagged bitmap should alias its fragment", p)
			}
			if s.blk == blkA {
				heldA = append(heldA, raw)
			}
			s.dec.OrPlane(p, raw, 0, s.blk.N)
		}
	}
	decA.CommitPlanes(DefaultPlanes)
	decB.CommitPlanes(DefaultPlanes)

	if !bytes.Equal(signsA, signsAt) {
		t.Fatal("block A's sign bitmap changed while block B decoded")
	}
	for p, raw := range heldA {
		if !bytes.Equal(raw, refSlicePlane(magnitudes(wantA), blkA.N, DefaultPlanes, p)) {
			t.Fatalf("block A's plane %d bitmap changed while block B decoded", p)
		}
	}
	if !slices.Equal(values(decA), values(wantA)) {
		t.Fatal("block A decodes differently when interleaved with block B")
	}
}

// BenchmarkEncodeAll64Cubed runs EncodeAll at the repository benchmark's
// shape: the coefficient groups of a 64³ field (sizes 1, 7, 56, … ≈ 7/8 of
// the total in the last), 60 planes, 2 workers.
func BenchmarkEncodeAll64Cubed(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	var groups [][]float64
	total := 0
	for side := 1; side <= 64; side *= 2 {
		n := side*side*side - total
		total += n
		// Finer levels hold smaller coefficients, as a decomposition's do.
		groups = append(groups, randVals(rng, n, 1/float64(side)))
	}
	b.SetBytes(int64(8 * total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeAll(groups, DefaultPlanes, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNarrowMagnitudesMatchWide holds the decoder, which keeps its
// magnitudes as uint32 until Reserve reaches plane 32, to a decoder that
// held uint64 magnitudes from the start, applied with the per-bit
// reference: after every batch of planes, over unaligned OrPlane ranges
// and ValuesAt chunks starting at offsets that are not multiples of 8,
// with and without signs, at ordinary exponents and at one whose value
// scale 2^(Exp−B) is subnormal. Batches cross plane 32 mid-stream, and a
// decoder that has not reserved past plane 32 holds no uint64 magnitudes.
func TestNarrowMagnitudesMatchWide(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 4099
	for _, numPlanes := range []int{1, 8, 31, 32, 33, 60, 62} {
		for _, scale := range []float64{1e3, math.Ldexp(0.75, -961)} {
			vals := randVals(rng, n, scale)
			blk, err := Encode(vals, numPlanes)
			if err != nil {
				t.Fatal(err)
			}
			raws := make([][]byte, numPlanes)
			for p := range raws {
				if raws[p], err = blk.RawBitmap(blk.Planes[p]); err != nil {
					t.Fatal(err)
				}
			}
			signs, err := blk.RawBitmap(blk.Signs)
			if err != nil {
				t.Fatal(err)
			}
			for _, withSigns := range []bool{true, false} {
				name := fmt.Sprintf("B=%d/Exp=%d/signs=%v", numPlanes, blk.Exp, withSigns)
				dec := NewDecoder(blk)
				ref := &Decoder{blk: blk, wide: make([]uint64, n)}
				if withSigns {
					dec.SetSigns(signs)
					ref.SetSigns(signs)
				}
				for p := 0; p < numPlanes; {
					k := min(p+1+rng.Intn(12), numPlanes) // planes [p, k) this batch
					dec.Reserve(k)
					for q := p; q < k; q++ {
						c := cuts(rng, n, false)
						for j := 0; j+1 < len(c); j++ {
							dec.OrPlane(q, raws[q], c[j], c[j+1])
						}
						refOrPlane(ref.wide, numPlanes, q, raws[q], 0, n)
					}
					dec.CommitPlanes(k)
					ref.CommitPlanes(k)
					p = k
					if (dec.wide != nil) != (k > 32) {
						t.Fatalf("%s at %d planes: uint64 magnitudes held = %v", name, k, dec.wide != nil)
					}
					got := make([]float64, n)
					c := cuts(rng, n, false)
					for j := 0; j+1 < len(c); j++ {
						dec.ValuesAt(got[c[j]:c[j+1]], c[j])
					}
					if !sameBits(got, refValues(ref)) || !slices.Equal(magnitudes(dec), ref.wide) {
						t.Fatalf("%s at %d planes: differs from the 64-bit reference", name, k)
					}
				}
			}
		}
	}
}

// TestNarrowDecoderNeverWidens: a decoder brought to 32 of 60 planes the
// way a reader brings it there holds only its uint32 magnitudes, and its
// Reserve calls allocate nothing.
func TestNarrowDecoderNeverWidens(t *testing.T) {
	blk, err := Encode(randVals(rand.New(rand.NewSource(48)), 1000, 1), DefaultPlanes)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(blk)
	for k := 1; k <= 32; k++ {
		if err := decodeTo(dec, k); err != nil {
			t.Fatal(err)
		}
	}
	if dec.wide != nil || len(dec.narrow) != blk.N {
		t.Fatalf("at %d planes: %d uint64 and %d uint32 magnitudes", dec.Applied(), len(dec.wide), len(dec.narrow))
	}
	if n := testing.AllocsPerRun(10, func() { dec.Reserve(32) }); n != 0 {
		t.Fatalf("Reserve(32) allocates %v times", n)
	}
}
