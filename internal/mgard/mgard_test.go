package mgard

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"progqoi/internal/grid"
)

func randField(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 10
	}
	return out
}

func smoothField(g *grid.Grid) []float64 {
	out := make([]float64, g.Size())
	for off := range out {
		c := g.Coords(off)
		v := 0.0
		for d, x := range c {
			v += math.Sin(2*math.Pi*float64(x)/float64(g.Dim(d))+float64(d)) * float64(d+1)
		}
		out[off] = v
	}
	return out
}

// groupsOf returns every group of d, in group order.
func groupsOf(d *Decomposition) [][]float64 {
	groups := make([][]float64, d.NumGroups())
	for gi := range groups {
		groups[gi] = d.Group(gi)
	}
	return groups
}

// recompose runs s.Recompose into a new slice, filling each group from
// groups[g].
func recompose(s *Decomposition, groups [][]float64) []float64 {
	out := make([]float64, s.Grid.Size())
	s.Recompose(out, func(g, lo int, vals []float64) { copy(vals, groups[g][lo:]) })
	return out
}

// reconstruct recomposes d's own coefficients: the inverse of Decompose.
func reconstruct(d *Decomposition) []float64 { return recompose(d, groupsOf(d)) }

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

var testShapes = [][]int{
	{1}, {2}, {3}, {5}, {17}, {100}, {129},
	{1, 1}, {4, 4}, {5, 7}, {16, 33},
	{3, 4, 5}, {8, 8, 8}, {9, 5, 17},
}

func TestRoundTripExactBothBases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range testShapes {
		g := grid.MustNew(dims...)
		data := randField(rng, g.Size())
		for _, basis := range []Basis{Hierarchical, Orthogonal} {
			d, err := Decompose(data, g, basis)
			if err != nil {
				t.Fatalf("%v %v: %v", dims, basis, err)
			}
			rec := reconstruct(d)
			// Transform is exactly invertible up to float round-off.
			tol := 1e-9 * (1 + maxAbs(data))
			if e := maxAbsDiff(data, rec); e > tol {
				t.Errorf("%v %v: round-trip error %g > %g", dims, basis, e, tol)
			}
		}
	}
}

func maxAbs(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		if x := math.Abs(v); x > m {
			m = x
		}
	}
	return m
}

func TestDecomposeRejectsBadInput(t *testing.T) {
	g := grid.MustNew(4)
	if _, err := Decompose([]float64{1, 2, 3}, g, Hierarchical); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Decompose([]float64{1, 2, math.NaN(), 4}, g, Hierarchical); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := Decompose([]float64{1, 2, math.Inf(1), 4}, g, Orthogonal); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestGroupsPartitionTheGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range testShapes {
		g := grid.MustNew(dims...)
		d, err := Decompose(randField(rng, g.Size()), g, Hierarchical)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		total := 0
		for gi := 0; gi < d.NumGroups(); gi++ {
			for _, r := range d.runs[gi] {
				for k := 0; k < r.n; k++ {
					seen[r.off+k*r.step]++
					total++
				}
			}
		}
		if total != g.Size() {
			t.Errorf("%v: groups cover %d of %d offsets", dims, total, g.Size())
		}
		for off, cnt := range seen {
			if cnt != 1 {
				t.Errorf("%v: offset %d covered %d times", dims, off, cnt)
			}
		}
	}
}

func TestGroupGetSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := grid.MustNew(9, 5)
	data := randField(rng, g.Size())
	d, _ := Decompose(data, g, Orthogonal)
	// Recompose the extracted groups through a shape holding no
	// coefficients; the field must match recomposing d's own, bit for bit,
	// into a buffer holding stale values.
	stale := make([]float64, g.Size())
	for i := range stale {
		stale[i] = math.NaN()
	}
	groups := groupsOf(d)
	NewShape(d.Grid, d.Basis).Recompose(stale, func(g, lo int, vals []float64) { copy(vals, groups[g][lo:]) })
	if !sameBits(stale, reconstruct(d)) {
		t.Fatal("recomposing extracted groups through a shape differs")
	}
}

func TestRecomposeRejectsWrongSize(t *testing.T) {
	g := grid.MustNew(8)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong destination size accepted")
		}
	}()
	NewShape(g, Hierarchical).Recompose(make([]float64, 7), func(int, int, []float64) {})
}

func TestNewShapeMatchesDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := grid.MustNew(7, 11)
	data := randField(rng, g.Size())
	d, _ := Decompose(data, g, Hierarchical)
	shape := NewShape(g, Hierarchical)
	if shape.NumGroups() != d.NumGroups() || shape.Steps != d.Steps || shape.coeffs != nil {
		t.Fatalf("shape mismatch: %d/%d groups, %d coefficients", shape.NumGroups(), d.NumGroups(), len(shape.coeffs))
	}
	for gi := 0; gi < d.NumGroups(); gi++ {
		if shape.GroupSize(gi) != d.GroupSize(gi) {
			t.Fatalf("group %d size mismatch", gi)
		}
	}
	if e := maxAbsDiff(reconstruct(d), recompose(shape, groupsOf(d))); e != 0 {
		t.Fatalf("NewShape recomposition differs by %g", e)
	}
}

// TestErrorBoundSound perturbs every group by a known amount and checks the
// reconstruction error never exceeds ErrorBound.
func TestErrorBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][]int{{33}, {16, 17}, {9, 9, 9}} {
		g := grid.MustNew(dims...)
		data := smoothField(g)
		for _, basis := range []Basis{Hierarchical, Orthogonal} {
			d, err := Decompose(data, g, basis)
			if err != nil {
				t.Fatal(err)
			}
			exact := reconstruct(d)
			for trial := 0; trial < 5; trial++ {
				bounds := make([]float64, d.NumGroups())
				pert := groupsOf(d)
				for gi, grp := range pert {
					eb := math.Pow(10, float64(rng.Intn(5))-4) // 1e-4..1e0
					bounds[gi] = eb
					for i := range grp {
						grp[i] += (rng.Float64()*2 - 1) * eb
					}
				}
				bound := d.ErrorBound(bounds, 0)
				rec := recompose(NewShape(d.Grid, d.Basis), pert)
				actual := maxAbsDiff(exact, rec)
				if actual > bound*(1+1e-9) {
					t.Errorf("%v %v trial %d: actual %g > bound %g", dims, basis, trial, actual, bound)
				}
			}
		}
	}
}

func TestErrorBoundHBTighterThanOB(t *testing.T) {
	g := grid.MustNew(65)
	data := smoothField(g)
	bounds := func(d *Decomposition) []float64 {
		b := make([]float64, d.NumGroups())
		for i := range b {
			b[i] = 1e-3
		}
		return b
	}
	hb, _ := Decompose(data, g, Hierarchical)
	ob, _ := Decompose(data, g, Orthogonal)
	bh := hb.ErrorBound(bounds(hb), 0)
	bo := ob.ErrorBound(bounds(ob), 0)
	if bh >= bo {
		t.Fatalf("HB bound %g should be tighter than OB bound %g", bh, bo)
	}
}

func TestErrorBoundWrongLength(t *testing.T) {
	g := grid.MustNew(16)
	d, _ := Decompose(make([]float64, 16), g, Hierarchical)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong bounds length accepted")
		}
	}()
	d.ErrorBound([]float64{1}, 0)
}

// TestOBDecaysCoefficientsOnSmoothData checks the transform decorrelates:
// detail coefficients of a smooth field must be much smaller than the data.
func TestCoefficientDecay(t *testing.T) {
	g := grid.MustNew(129)
	data := smoothField(g)
	for _, basis := range []Basis{Hierarchical, Orthogonal} {
		d, _ := Decompose(data, g, basis)
		finest := d.Group(d.NumGroups() - 1)
		coarsest := d.Group(0)
		if maxAbs(finest) > maxAbs(coarsest)/10 {
			t.Errorf("%v: finest details %g not small vs coarsest %g", basis, maxAbs(finest), maxAbs(coarsest))
		}
	}
}

func TestSingleElementGrid(t *testing.T) {
	g := grid.MustNew(1)
	d, err := Decompose([]float64{42}, g, Orthogonal)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumGroups() != 1 {
		t.Fatalf("groups = %d", d.NumGroups())
	}
	if got := reconstruct(d); got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestGroupLevelMapping(t *testing.T) {
	g := grid.MustNew(17) // 5 levels → 4 steps
	d, _ := Decompose(make([]float64, 17), g, Hierarchical)
	if d.Steps != 4 {
		t.Fatalf("steps = %d", d.Steps)
	}
	if d.GroupLevel(0) != -1 {
		t.Fatal("coarsest group level should be -1")
	}
	if d.GroupLevel(1) != 3 || d.GroupLevel(4) != 0 {
		t.Fatalf("levels: %d %d", d.GroupLevel(1), d.GroupLevel(4))
	}
	// Group sizes: coarsest 2 nodes (0,16), then 1, 2, 4, 8.
	wantSizes := []int{2, 1, 2, 4, 8}
	for gi, want := range wantSizes {
		if got := d.GroupSize(gi); got != want {
			t.Errorf("group %d size = %d, want %d", gi, got, want)
		}
	}
}

func TestPropertyRoundTripQuick(t *testing.T) {
	f := func(seed int64, dsel uint8, basisSel bool) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := testShapes[int(dsel)%len(testShapes)]
		g := grid.MustNew(dims...)
		data := randField(rng, g.Size())
		basis := Hierarchical
		if basisSel {
			basis = Orthogonal
		}
		d, err := Decompose(data, g, basis)
		if err != nil {
			return false
		}
		rec := reconstruct(d)
		return maxAbsDiff(data, rec) <= 1e-9*(1+maxAbs(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBasisString(t *testing.T) {
	if Hierarchical.String() != "HB" || Orthogonal.String() != "OB" {
		t.Fatal("basis names")
	}
	if Basis(9).String() != "Basis(9)" {
		t.Fatal("unknown basis name")
	}
}

func BenchmarkDecomposeHB64x64x64(b *testing.B) {
	g := grid.MustNew(64, 64, 64)
	data := smoothField(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(data, g, Hierarchical); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposeOB64x64x64(b *testing.B) {
	g := grid.MustNew(64, 64, 64)
	data := smoothField(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(data, g, Orthogonal); err != nil {
			b.Fatal(err)
		}
	}
}
