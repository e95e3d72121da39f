package bitplane

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"progqoi/internal/encoding"
)

// randGroups builds coefficient groups of mixed sizes, including an
// all-zero group and an empty one, to exercise every EncodeAll branch.
func randGroups(seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{1, 7, 64, 513, 0, 200}
	groups := make([][]float64, len(sizes))
	for g, n := range sizes {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
		groups[g] = vals
	}
	groups[4] = []float64{} // empty
	if len(groups[5]) > 0 {
		for i := range groups[5] {
			groups[5][i] = 0 // all-zero block
		}
	}
	return groups
}

func blocksEqual(t *testing.T, a, b *Block) {
	t.Helper()
	if a.N != b.N || a.Exp != b.Exp || a.B != b.B {
		t.Fatalf("header differs: %+v vs %+v", a, b)
	}
	if !bytes.Equal(a.Signs, b.Signs) {
		t.Fatal("sign fragments differ")
	}
	if len(a.Planes) != len(b.Planes) {
		t.Fatalf("plane counts differ: %d vs %d", len(a.Planes), len(b.Planes))
	}
	for p := range a.Planes {
		if !bytes.Equal(a.Planes[p], b.Planes[p]) {
			t.Fatalf("plane %d differs", p)
		}
	}
}

// TestEncodeAllMatchesEncode is the encode-side bit-identity guarantee:
// pooling the per-(group, plane) compression changes no stored byte, for
// any worker count.
func TestEncodeAllMatchesEncode(t *testing.T) {
	groups := randGroups(7)
	want := make([]*Block, len(groups))
	for g, vals := range groups {
		blk, err := Encode(vals, 40)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = blk
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := EncodeAll(groups, 40, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d blocks", workers, len(got))
		}
		for g := range want {
			blocksEqual(t, want[g], got[g])
		}
	}
}

// TestEncodeAllRejectsBadInput mirrors Encode's validation: non-finite
// values and out-of-range plane counts fail, from any group position.
func TestEncodeAllRejectsBadInput(t *testing.T) {
	if _, err := EncodeAll([][]float64{{1, 2}}, 0, 4); err == nil {
		t.Fatal("numPlanes 0 accepted")
	}
	if _, err := EncodeAll([][]float64{{1, 2}}, 63, 4); err == nil {
		t.Fatal("numPlanes 63 accepted")
	}
	groups := [][]float64{{1, 2}, {3, math.NaN()}, {5}}
	if _, err := EncodeAll(groups, 30, 4); err == nil {
		t.Fatal("NaN accepted")
	}
	groups[1][1] = math.Inf(1)
	if _, err := EncodeAll(groups, 30, 4); err == nil {
		t.Fatal("Inf accepted")
	}
}

// TestEncodeAllRoundTrip decodes pooled-encode output through the normal
// Decoder to full precision.
func TestEncodeAllRoundTrip(t *testing.T) {
	groups := randGroups(11)
	blocks, err := EncodeAll(groups, DefaultPlanes, 4)
	if err != nil {
		t.Fatal(err)
	}
	for g, blk := range blocks {
		d := NewDecoder(blk)
		if err := decodeTo(d, blk.B); err != nil {
			t.Fatal(err)
		}
		vals := values(d)
		bound := blk.Bound(blk.B)
		for i, v := range groups[g] {
			if math.Abs(v-vals[i]) > bound {
				t.Fatalf("group %d value %d: |%g-%g| > %g", g, i, v, vals[i], bound)
			}
		}
	}
}

// TestFragmentFraming: Fragment(p) is plane p as one encoding section, the
// sign section first for plane 0.
func TestFragmentFraming(t *testing.T) {
	blocks, err := EncodeAll(randGroups(11), 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for g, blk := range blocks {
		if blk.Exp == math.MinInt32 {
			continue
		}
		for p := range blk.Planes {
			var want []byte
			if p == 0 {
				want = encoding.PutSection(want, blk.Signs)
			}
			want = encoding.PutSection(want, blk.Planes[p])
			if got := blk.Fragment(p); !bytes.Equal(got, want) {
				t.Fatalf("group %d plane %d: fragment differs from its sections", g, p)
			}
		}
	}
}

// TestEncodeAllReusesCleanBuffers: EncodeAll reuses its magnitude buffer
// and plane slab across calls. A dense encode followed by a sparse one of
// the same sizes must leave no bit of the first in the second, which the
// per-plane reference encode would show.
func TestEncodeAllReusesCleanBuffers(t *testing.T) {
	const numPlanes = 30
	rng := rand.New(rand.NewSource(3))
	dense, sparse := make([][]float64, 3), make([][]float64, 3)
	for g, n := range []int{9, 4097, 2*sliceChunk + 5} {
		dense[g], sparse[g] = make([]float64, n), make([]float64, n)
		for i := range dense[g] {
			dense[g][i] = -math.Nextafter(1, 0) * rng.Float64()
			if i%97 == 0 {
				sparse[g][i] = rng.Float64()
			}
		}
	}
	for round := 0; round < 3; round++ {
		if _, err := EncodeAll(dense, numPlanes, 2); err != nil {
			t.Fatal(err)
		}
		got, err := EncodeAll(sparse, numPlanes, 2)
		if err != nil {
			t.Fatal(err)
		}
		for g, vals := range sparse {
			blocksEqual(t, refEncode(t, vals, numPlanes), got[g])
		}
	}
}
