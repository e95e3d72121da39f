package mgard

import (
	"math/rand"
	"testing"

	"progqoi/internal/grid"
)

// coarseAt is d's representation at resolution level l (0 = full): group 0
// and the detail groups of levels ≥ l, the finer details left at zero,
// recomposed and gathered on the level-l lattice. A zero
// detail changes no lattice node in either basis: HB interpolates only the
// nodes between, and OB's correction is computed from the details.
func coarseAt(t *testing.T, d *Decomposition, l int) []float64 {
	t.Helper()
	groups := groupsOf(d)
	for gi := d.Steps - l + 1; gi < len(groups); gi++ {
		clear(groups[gi])
	}
	return subsample(d.Grid, recompose(NewShape(d.Grid, d.Basis), groups), l)
}

// subsample gathers data on the level-l lattice of g.
func subsample(g *grid.Grid, data []float64, l int) []float64 {
	stride := grid.LevelStride(l)
	var out []float64
	var walk func(dim, off int)
	walk = func(dim, off int) {
		if dim == g.NDims() {
			out = append(out, data[off])
			return
		}
		for c := 0; c < g.Dim(dim); c += stride {
			walk(dim+1, off+c*g.Stride(dim))
		}
	}
	walk(0, 0)
	return out
}

func TestHBCoarseLevelsSubsampleOriginal(t *testing.T) {
	// Under the hierarchical basis, the level-l representation must equal
	// the original values at the level-l lattice nodes exactly (up to
	// round-off): finer detail levels never touch coarse nodes.
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][]int{{33}, {17, 12}, {9, 8, 7}} {
		g := grid.MustNew(dims...)
		data := randField(rng, g.Size())
		d, err := Decompose(data, g, Hierarchical)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l <= d.Steps; l++ {
			coarse, want := coarseAt(t, d, l), subsample(g, data, l)
			if len(coarse) != len(want) {
				t.Fatalf("%v level %d: %d coarse nodes, want %d", dims, l, len(coarse), len(want))
			}
			for i := range want {
				if diff := coarse[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%v level %d: node %d differs by %g", dims, l, i, diff)
				}
			}
		}
	}
}

func TestOBCoarseLevelIsSmoothedProjection(t *testing.T) {
	// OB coarse values are L2 projections, not subsamples: they generally
	// differ from the original nodal values but remain close for smooth
	// data.
	g := grid.MustNew(65)
	data := smoothField(g)
	d, _ := Decompose(data, g, Orthogonal)
	coarse := coarseAt(t, d, 2)
	if len(coarse) != 17 {
		t.Fatalf("%d coarse nodes, want 17", len(coarse))
	}
	maxDiff, anyDiff := 0.0, false
	for i, v := range coarse {
		orig := data[i*4]
		diff := v - orig
		if diff < 0 {
			diff = -diff
		}
		if diff > 0 {
			anyDiff = true
		}
		if diff > maxDiff {
			maxDiff = diff
		}
	}
	if !anyDiff {
		t.Fatal("OB projection should differ from plain subsampling")
	}
	rangeScale := 6.0 // smoothField amplitude
	if maxDiff > 0.5*rangeScale {
		t.Fatalf("OB projection wildly off: %g", maxDiff)
	}
}
