package bitplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVals(rng *rand.Rand, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (rng.Float64()*2 - 1) * scale
	}
	return out
}

// decodeTo brings d to k planes of its block the way a reader does:
// RawBitmap of the sign fragment with the first plane and of every plane
// from Applied() up to k, SetSigns, Reserve(k), OrPlane over the whole
// block, then CommitPlanes(k), which clamps k to B and ignores a k below Applied(). An
// all-zero block stores no fragments, so only the commit runs.
func decodeTo(d *Decoder, k int) error {
	b := d.blk
	if b.Exp == math.MinInt32 {
		d.CommitPlanes(k)
		return nil
	}
	n := min(k, b.B)
	if d.Applied() == 0 && n > 0 {
		raw, err := b.RawBitmap(b.Signs)
		if err != nil {
			return fmt.Errorf("signs: %w", err)
		}
		d.SetSigns(raw)
	}
	d.Reserve(n)
	for p := d.Applied(); p < n; p++ {
		raw, err := b.RawBitmap(b.Planes[p])
		if err != nil {
			return fmt.Errorf("plane %d: %w", p, err)
		}
		d.OrPlane(p, raw, 0, b.N)
	}
	d.CommitPlanes(k)
	return nil
}

// values returns d's current approximation in a new slice.
func values(d *Decoder) []float64 {
	out := make([]float64, d.blk.N)
	d.ValuesAt(out, 0)
	return out
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {1, math.Inf(-1)}} {
		if _, err := Encode(bad, 20); err == nil {
			t.Errorf("Encode(%v) should fail", bad)
		}
	}
	if _, err := Encode([]float64{1}, 0); err == nil {
		t.Error("numPlanes 0 should fail")
	}
	if _, err := Encode([]float64{1}, 63); err == nil {
		t.Error("numPlanes 63 should fail")
	}
}

func TestAllZerosBlock(t *testing.T) {
	b, err := Encode(make([]float64, 100), 30)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bound(0) != 0 || b.Bound(30) != 0 {
		t.Fatal("all-zero block should have zero bound")
	}
	d := NewDecoder(b)
	if err := decodeTo(d, 5); err != nil {
		t.Fatal(err)
	}
	for _, v := range values(d) {
		if v != 0 {
			t.Fatal("all-zero block should decode to zeros")
		}
	}
	if b.Signs != nil || b.Planes != nil {
		t.Fatalf("all-zero block stores fragments: %d signs bytes, %d planes", len(b.Signs), len(b.Planes))
	}
	if d.Bound() != 0 {
		t.Fatalf("all-zero block decodes with bound %g", d.Bound())
	}
}

func TestEmptyBlock(t *testing.T) {
	b, err := Encode(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(b)
	if err := decodeTo(d, 10); err != nil {
		t.Fatal(err)
	}
	if len(values(d)) != 0 {
		t.Fatal("empty block should decode empty")
	}
}

func TestProgressiveBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := randVals(rng, 1000, 123.0)
	vals[0] = 123.0 // exercise the max boundary
	vals[1] = -123.0
	b, err := Encode(vals, DefaultPlanes)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(b)
	prevBound := math.Inf(1)
	for k := 0; k <= b.B; k += 3 {
		if err := decodeTo(d, k); err != nil {
			t.Fatal(err)
		}
		got := values(d)
		bound := d.Bound()
		if bound > prevBound {
			t.Fatalf("bound not monotone at k=%d: %g > %g", k, bound, prevBound)
		}
		prevBound = bound
		for i := range vals {
			if e := math.Abs(vals[i] - got[i]); e > bound {
				t.Fatalf("k=%d i=%d: error %g exceeds bound %g", k, i, e, bound)
			}
		}
	}
}

func TestFullPrecisionRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := randVals(rng, 500, 1e6)
	b, err := Encode(vals, DefaultPlanes)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(b)
	if err := decodeTo(d, b.B); err != nil {
		t.Fatal(err)
	}
	got := values(d)
	tol := b.Bound(b.B)
	for i := range vals {
		if math.Abs(vals[i]-got[i]) > tol {
			t.Fatalf("i=%d: %g vs %g (tol %g)", i, vals[i], got[i], tol)
		}
	}
	// Full recovery should be extremely precise relative to magnitude.
	if rel := tol / 1e6; rel > 1e-15 {
		t.Fatalf("full-precision relative bound too loose: %g", rel)
	}
}

func TestSignsRecovered(t *testing.T) {
	vals := []float64{-1, 1, -0.5, 0.5, -0.25, 0.25, 0}
	b, err := Encode(vals, 40)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(b)
	if err := decodeTo(d, 40); err != nil {
		t.Fatal(err)
	}
	got := values(d)
	for i, v := range vals {
		if v < 0 && got[i] > 0 || v > 0 && got[i] < 0 {
			t.Fatalf("sign lost at %d: %g -> %g", i, v, got[i])
		}
	}
}

func TestZeroPlanesDecodesZero(t *testing.T) {
	vals := []float64{3, -4, 5}
	b, _ := Encode(vals, 20)
	d := NewDecoder(b)
	for _, v := range values(d) {
		if v != 0 {
			t.Fatal("no planes applied should give zeros")
		}
	}
	if d.Bound() < 4 { // must cover max |v| = 5 < 2^3
		t.Fatalf("bound %g too small with no data", d.Bound())
	}
}

func TestAdvanceClampsAndIsIdempotent(t *testing.T) {
	vals := []float64{1, 2, 3}
	b, _ := Encode(vals, 10)
	d := NewDecoder(b)
	if err := decodeTo(d, 100); err != nil {
		t.Fatal(err)
	}
	if d.Applied() != 10 {
		t.Fatalf("applied = %d", d.Applied())
	}
	v1 := values(d)
	if err := decodeTo(d, 5); err != nil { // a backwards commit is a no-op
		t.Fatal(err)
	}
	v2 := values(d)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("no-op advance changed values")
		}
	}
}

func TestPlaneSizeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b, _ := Encode(randVals(rng, 4096, 1), 30)
	sum, total := 0, len(b.Signs)
	for p := 0; p < 30; p++ {
		sum += b.PlaneSize(p)
		total += len(b.Planes[p])
	}
	if sum != total {
		t.Fatalf("plane sizes %d != total %d", sum, total)
	}
	if b.PlaneSize(0) <= len(b.Planes[0]) {
		t.Fatal("plane 0 must include sign fragment cost")
	}
}

func TestLeadingZeroPlanesCompress(t *testing.T) {
	// Values much smaller than a single large one: high planes nearly empty.
	vals := make([]float64, 8192)
	for i := range vals {
		vals[i] = 1e-6
	}
	vals[0] = 1.0
	b, _ := Encode(vals, 50)
	if b.PlaneSize(1) > 200 {
		t.Fatalf("near-empty plane stored %d bytes", b.PlaneSize(1))
	}
}

func TestCorruptFragmentDetected(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b, _ := Encode(vals, 12)
	b.Planes[0] = []byte{99, 1, 2} // bad tag
	d := NewDecoder(b)
	if err := decodeTo(d, 1); err == nil {
		t.Fatal("bad tag not detected")
	}
	b.Planes[0] = nil
	d = NewDecoder(b)
	if err := decodeTo(d, 1); err == nil {
		t.Fatal("empty fragment not detected")
	}
}

func TestPropertyBoundSoundness(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		scale := math.Ldexp(1, rng.Intn(40)-20)
		vals := randVals(rng, n, scale)
		b, err := Encode(vals, 45)
		if err != nil {
			return false
		}
		k := int(kRaw) % 46
		d := NewDecoder(b)
		if err := decodeTo(d, k); err != nil {
			return false
		}
		bound := d.Bound()
		for i, v := range values(d) {
			if math.Abs(vals[i]-v) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode4K(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := randVals(rng, 4096, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(vals, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode4K(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	vals := randVals(rng, 4096, 1)
	blk, _ := Encode(vals, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(blk)
		if err := decodeTo(d, 32); err != nil {
			b.Fatal(err)
		}
		_ = values(d)
	}
}
