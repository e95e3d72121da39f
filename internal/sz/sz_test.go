package sz

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"progqoi/internal/encoding"
	"progqoi/internal/grid"
)

func smoothField(g *grid.Grid) []float64 {
	out := make([]float64, g.Size())
	for off := range out {
		c := g.Coords(off)
		v := 0.0
		for d, x := range c {
			v += math.Sin(2*math.Pi*float64(x)/float64(g.Dim(d))+0.3*float64(d)) * float64(d+1)
		}
		out[off] = 100 * v
	}
	return out
}

func randField(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 50
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

var shapes = [][]int{{1}, {2}, {7}, {100}, {257}, {5, 9}, {32, 33}, {7, 8, 9}, {17, 5, 13}}

func TestRoundTripRespectsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range shapes {
		g := grid.MustNew(dims...)
		for _, data := range [][]float64{smoothField(g), randField(rng, g.Size())} {
			for _, eb := range []float64{1e-1, 1e-3, 1e-6} {
				buf, err := Compress(data, g, eb)
				if err != nil {
					t.Fatalf("%v eb=%g: %v", dims, eb, err)
				}
				rec, g2, eb2, err := Decompress(buf)
				if err != nil {
					t.Fatalf("%v eb=%g: %v", dims, eb, err)
				}
				if !g.Equal(g2) || eb2 != eb {
					t.Fatalf("metadata mismatch: %v %g", g2.Dims(), eb2)
				}
				if e := maxAbsDiff(data, rec); e > eb {
					t.Fatalf("%v eb=%g: L∞ error %g exceeds bound", dims, eb, e)
				}
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	g := grid.MustNew(64, 64)
	data := smoothField(g)
	b1, err := Compress(data, g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := Compress(data, g, 1e-4)
	if len(b1) != len(b2) {
		t.Fatal("nondeterministic size")
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("nondeterministic bytes")
		}
	}
}

func TestSmoothDataCompresses(t *testing.T) {
	g := grid.MustNew(64, 64, 64)
	data := smoothField(g)
	buf, err := Compress(data, g, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	raw := g.Size() * 8
	if len(buf) > raw/8 {
		t.Fatalf("smooth field should compress ≥8×: %d vs %d raw", len(buf), raw)
	}
}

func TestTighterBoundCostsMore(t *testing.T) {
	g := grid.MustNew(48, 48)
	data := smoothField(g)
	var prev int
	for i, eb := range []float64{1e-1, 1e-3, 1e-5, 1e-7} {
		buf, err := Compress(data, g, eb)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(buf) < prev {
			t.Fatalf("eb=%g produced smaller output (%d) than looser bound (%d)", eb, len(buf), prev)
		}
		prev = len(buf)
	}
}

func TestOutliersExact(t *testing.T) {
	// A field with huge spikes: spikes must come back essentially exact via
	// the outlier path while everything else obeys the bound.
	g := grid.MustNew(101)
	data := make([]float64, 101)
	for i := range data {
		data[i] = math.Sin(float64(i) / 10)
	}
	data[13] = 1e12
	data[77] = -3e11
	eb := 1e-6
	buf, err := Compress(data, g, eb)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsDiff(data, rec); e > eb {
		t.Fatalf("outlier handling violated bound: %g", e)
	}
}

func TestConstantField(t *testing.T) {
	g := grid.MustNew(50, 50)
	data := make([]float64, g.Size())
	for i := range data {
		data[i] = 42.5
	}
	buf, err := Compress(data, g, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 2000 {
		t.Fatalf("constant field should be tiny, got %d bytes", len(buf))
	}
	rec, _, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsDiff(data, rec); e > 1e-8 {
		t.Fatalf("error %g", e)
	}
}

func TestCompressRejectsBadInput(t *testing.T) {
	g := grid.MustNew(4)
	ok := []float64{1, 2, 3, 4}
	if _, err := Compress(ok[:3], g, 1e-3); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Compress(ok, g, 0); err == nil {
		t.Fatal("zero bound accepted")
	}
	if _, err := Compress(ok, g, -1); err == nil {
		t.Fatal("negative bound accepted")
	}
	if _, err := Compress(ok, g, math.Inf(1)); err == nil {
		t.Fatal("infinite bound accepted")
	}
	if _, err := Compress([]float64{1, math.NaN(), 3, 4}, g, 1e-3); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	g := grid.MustNew(30)
	data := smoothField(g)
	buf, _ := Compress(data, g, 1e-4)
	for _, cut := range []int{0, 3, 8, 20, len(buf) - 1} {
		if _, _, _, err := Decompress(buf[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 0xff // mangle rank
	if _, _, _, err := Decompress(bad); err == nil {
		t.Error("mangled header not detected")
	}
}

// TestDecompressForgedAlphabet: a stream whose Huffman alphabet is wider
// than any Compress writes is refused before its length table is
// inflated or its decoder built, both of which the alphabet sizes. The
// symbols are the real ones, so only the alphabet is forged.
func TestDecompressForgedAlphabet(t *testing.T) {
	g := grid.MustNew(30)
	buf, err := Compress(smoothField(g), g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	hdr, n, _ := encoding.GetSection(buf)
	huff, m, _ := encoding.GetSection(buf[n:])
	syms, err := encoding.HuffmanDecode(huff, maxAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := encoding.HuffmanEncode(syms, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	forged := encoding.PutSection(encoding.PutSection(nil, hdr), wide)
	forged = append(forged, buf[n+m:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = Decompress(forged)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, encoding.ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("allocated %d bytes", d)
	}
}

func TestPropertyBoundAlwaysHolds(t *testing.T) {
	f := func(seed int64, shapeSel uint8, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := shapes[int(shapeSel)%len(shapes)]
		g := grid.MustNew(dims...)
		data := randField(rng, g.Size())
		eb := math.Pow(10, -float64(ebExp%8)-1)
		buf, err := Compress(data, g, eb)
		if err != nil {
			return false
		}
		rec, _, _, err := Decompress(buf)
		if err != nil {
			return false
		}
		return maxAbsDiff(data, rec) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualCompression(t *testing.T) {
	// The PSZ3-delta pattern: compress, compute residual, compress residual
	// with a tighter bound; combined reconstruction obeys the tighter bound.
	g := grid.MustNew(40, 40)
	data := smoothField(g)
	b1, err := Compress(data, g, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, _, _ := Decompress(b1)
	residual := make([]float64, len(data))
	for i := range residual {
		residual[i] = data[i] - r1[i]
	}
	b2, err := Compress(residual, g, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, _, _ := Decompress(b2)
	combined := make([]float64, len(data))
	for i := range combined {
		combined[i] = r1[i] + r2[i]
	}
	if e := maxAbsDiff(data, combined); e > 1e-5 {
		t.Fatalf("delta reconstruction error %g", e)
	}
	if len(b2) > len(b1)*20 {
		t.Fatalf("residual snapshot unexpectedly huge: %d vs %d", len(b2), len(b1))
	}
}

func BenchmarkCompress64Cubed(b *testing.B) {
	g := grid.MustNew(64, 64, 64)
	data := smoothField(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, g, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress64Cubed(b *testing.B) {
	g := grid.MustNew(64, 64, 64)
	data := smoothField(g)
	buf, _ := Compress(data, g, 1e-4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Decompress(buf); err != nil {
			b.Fatal(err)
		}
	}
}
