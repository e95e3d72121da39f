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
				dec := &Decoder{blk: &Block{N: n, B: numPlanes}, mags: make([]uint64, n)}
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
				if !slices.Equal(dec.mags, ref) || !slices.Equal(ref, mags) {
					t.Fatalf("%s: decoded magnitudes differ from the per-bit reference", name)
				}
			}
		}
	}
}

// TestOrPlaneStaysInRange: an unaligned OrPlane must not touch a
// coefficient outside [lo, hi) — concurrent callers own disjoint ranges.
func TestOrPlaneStaysInRange(t *testing.T) {
	const n = 100
	raw := bytes.Repeat([]byte{0xff}, (n+7)/8)
	for lo := 0; lo <= 17; lo++ {
		for hi := lo; hi <= n; hi += 7 {
			dec := &Decoder{blk: &Block{N: n, B: 8}, mags: make([]uint64, n)}
			dec.OrPlane(3, raw, lo, hi)
			for i, m := range dec.mags {
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
	blk, mags, signs, err := prepare(vals, numPlanes)
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
	if err := wantA.Advance(DefaultPlanes); err != nil {
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
		if !bytes.Equal(raw, refSlicePlane(wantA.mags, blkA.N, DefaultPlanes, p)) {
			t.Fatalf("block A's plane %d bitmap changed while block B decoded", p)
		}
	}
	if !slices.Equal(decA.Values(), wantA.Values()) {
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
