package mgard

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"progqoi/internal/grid"
)

// The reference kernels below are the closure walks the run tables and the
// odometer line loop replaced, kept verbatim so the new kernels are held to
// them bit for bit: refGroupIndices visits a group one coefficient at a
// time through a recursive closure, and refDecompose and refReconstruct
// build every line's offset slice before transforming it.

func refGroupIndices(d *Decomposition, gIdx int, fn func(off int)) {
	ndim := d.Grid.NDims()
	var coarse, fine int
	if gIdx == 0 {
		coarse = grid.LevelStride(d.Steps)
		fine = -1
	} else {
		fine = grid.LevelStride(d.GroupLevel(gIdx))
		coarse = fine * 2
	}
	var walk func(dim, off int, anyOdd bool)
	walk = func(dim, off int, anyOdd bool) {
		if dim == ndim {
			if fine < 0 || anyOdd {
				fn(off)
			}
			return
		}
		ext := d.Grid.Dim(dim)
		stride := d.Grid.Stride(dim)
		if fine < 0 {
			for c := 0; c < ext; c += coarse {
				walk(dim+1, off+c*stride, false)
			}
			return
		}
		if fine >= ext {
			walk(dim+1, off, anyOdd)
			return
		}
		for c := 0; c < ext; c += fine {
			walk(dim+1, off+c*stride, anyOdd || (c/fine)%2 == 1)
		}
	}
	walk(0, 0, false)
}

func refEachLine(g *grid.Grid, dim, s int, fn func(line []int)) {
	ndim := g.NDims()
	stride := g.Stride(dim)
	nLine := (g.Dim(dim) + s - 1) / s
	line := make([]int, nLine)
	var walk func(k, base int)
	walk = func(k, base int) {
		if k == ndim {
			for i := 0; i < nLine; i++ {
				line[i] = base + i*s*stride
			}
			fn(line)
			return
		}
		if k == dim || s >= g.Dim(k) {
			walk(k+1, base)
			return
		}
		for c := 0; c < g.Dim(k); c += s {
			walk(k+1, base+c*g.Stride(k))
		}
	}
	walk(0, 0)
}

func refCorrection(c []float64, line []int) []float64 {
	m := len(line)
	nc := (m + 1) / 2
	f := make([]float64, nc)
	for j := 0; j < nc; j++ {
		var load float64
		li := 2 * j
		if li-1 >= 0 {
			load += c[line[li-1]]
		}
		if li+1 < m {
			load += c[line[li+1]]
		}
		f[j] = load / 4
	}
	diag := make([]float64, nc)
	for j := range diag {
		if j == 0 || j == nc-1 {
			diag[j] = 0.5
		} else {
			diag[j] = 2.0 / 3.0
		}
	}
	if nc == 1 {
		f[0] /= diag[0]
		return f
	}
	const off = 1.0 / 6.0
	cp := make([]float64, nc)
	cp[0] = off / diag[0]
	f[0] /= diag[0]
	for j := 1; j < nc; j++ {
		denom := diag[j] - off*cp[j-1]
		if j < nc-1 {
			cp[j] = off / denom
		}
		f[j] = (f[j] - off*f[j-1]) / denom
	}
	for j := nc - 2; j >= 0; j-- {
		f[j] -= cp[j] * f[j+1]
	}
	return f
}

func refForwardLine(basis Basis, c []float64, line []int) {
	m := len(line)
	if m < 2 {
		return
	}
	for i := 1; i < m; i += 2 {
		var pred float64
		if i+1 < m {
			pred = 0.5 * (c[line[i-1]] + c[line[i+1]])
		} else {
			pred = c[line[i-1]]
		}
		c[line[i]] -= pred
	}
	if basis == Orthogonal {
		w := refCorrection(c, line)
		for i, j := 0, 0; i < m; i, j = i+2, j+1 {
			c[line[i]] += w[j]
		}
	}
}

func refInverseLine(basis Basis, c []float64, line []int) {
	m := len(line)
	if m < 2 {
		return
	}
	if basis == Orthogonal {
		w := refCorrection(c, line)
		for i, j := 0, 0; i < m; i, j = i+2, j+1 {
			c[line[i]] -= w[j]
		}
	}
	for i := 1; i < m; i += 2 {
		var pred float64
		if i+1 < m {
			pred = 0.5 * (c[line[i-1]] + c[line[i+1]])
		} else {
			pred = c[line[i-1]]
		}
		c[line[i]] += pred
	}
}

// refDecompose and refReconstruct run the whole forward and inverse
// transform on c in place through the reference line kernels.
func refDecompose(g *grid.Grid, basis Basis, c []float64) {
	for l := 0; l < g.NumLevels()-1; l++ {
		for dim := 0; dim < g.NDims(); dim++ {
			if s := grid.LevelStride(l); s < g.Dim(dim) {
				refEachLine(g, dim, s, func(line []int) { refForwardLine(basis, c, line) })
			}
		}
	}
}

func refReconstruct(g *grid.Grid, basis Basis, c []float64) {
	for l := g.NumLevels() - 2; l >= 0; l-- {
		for dim := g.NDims() - 1; dim >= 0; dim-- {
			if s := grid.LevelStride(l); s < g.Dim(dim) {
				refEachLine(g, dim, s, func(line []int) { refInverseLine(basis, c, line) })
			}
		}
	}
}

// kernelShapes are 1-D to 4-D grids with odd and non-power-of-two extents,
// extents of 1 and 2, and dims that drop out of the transform at different
// levels.
var kernelShapes = [][]int{
	{1}, {2}, {3}, {6}, {33}, {100},
	{1, 7}, {7, 1}, {2, 9}, {5, 12}, {17, 6},
	{3, 5, 7}, {9, 2, 17}, {12, 10, 6}, {33, 17, 9},
	{3, 4, 5, 6}, {5, 1, 9, 3}, {2, 7, 3, 9},
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestRunsMatchClosureWalk: GroupSize, Group and Recompose's scatter visit
// exactly the offsets of the closure walk, in its order. The last shape's
// finest groups span several Recompose chunks.
func TestRunsMatchClosureWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range append(slices.Clone(kernelShapes), []int{40, 30, 20}) {
		g := grid.MustNew(dims...)
		for _, basis := range []Basis{Hierarchical, Orthogonal} {
			d, err := Decompose(randField(rng, g.Size()), g, basis)
			if err != nil {
				t.Fatal(err)
			}
			groups := make([][]float64, d.NumGroups())
			want := make([]float64, g.Size())
			for gi := 0; gi < d.NumGroups(); gi++ {
				var offs []int
				refGroupIndices(d, gi, func(off int) { offs = append(offs, off) })
				if got := d.GroupSize(gi); got != len(offs) {
					t.Fatalf("%v %v group %d: size %d, closure walk %d", dims, basis, gi, got, len(offs))
				}
				grp := d.Group(gi)
				for i, off := range offs {
					if math.Float64bits(grp[i]) != math.Float64bits(d.coeffs[off]) {
						t.Fatalf("%v %v group %d: value %d from offset %d differs", dims, basis, gi, i, off)
					}
				}
				groups[gi] = randField(rng, len(offs))
				for i, off := range offs {
					want[off] = groups[gi][i]
				}
			}
			refReconstruct(g, basis, want)
			if got := recompose(NewShape(g, basis), groups); !sameBits(got, want) {
				t.Fatalf("%v %v: Recompose scattered to other offsets than the closure walk", dims, basis)
			}
		}
	}
}

// TestTransformMatchesReference holds Decompose and Recompose to the
// line-slice kernels bit for bit, on fully decomposed fields and on group
// sets where only some groups moved since the last Recompose (the state a
// progressive reader commits from), recomposing into one stale buffer per
// shape.
func TestTransformMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, dims := range kernelShapes {
		g := grid.MustNew(dims...)
		for _, basis := range []Basis{Hierarchical, Orthogonal} {
			data := randField(rng, g.Size())
			d, err := Decompose(data, g, basis)
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(data)
			refDecompose(g, basis, want)
			if !sameBits(d.coeffs, want) {
				t.Fatalf("%v %v: Decompose differs from the reference", dims, basis)
			}
			shape := NewShape(d.Grid, d.Basis)
			groups := make([][]float64, d.NumGroups())
			for gi := range groups {
				groups[gi] = make([]float64, d.GroupSize(gi))
			}
			dst := make([]float64, g.Size())
			for i := range dst {
				dst[i] = math.NaN()
			}
			for trial := 0; trial < 3; trial++ {
				for gi := range groups {
					if rng.Intn(3) == 0 {
						continue // this group keeps its previous values
					}
					// The group as a prefix of its bit planes would give it.
					grp, bits := d.Group(gi), 4+8*trial
					for i := range grp {
						grp[i] = math.Ldexp(math.Trunc(math.Ldexp(grp[i], bits)), -bits)
					}
					groups[gi] = grp
				}
				want := make([]float64, g.Size())
				for gi, grp := range groups {
					i := 0
					refGroupIndices(d, gi, func(off int) { want[off], i = grp[i], i+1 })
				}
				refReconstruct(g, basis, want)
				shape.Recompose(dst, func(g, lo int, vals []float64) { copy(vals, groups[g][lo:]) })
				if !sameBits(dst, want) {
					t.Fatalf("%v %v trial %d: Recompose differs from the reference", dims, basis, trial)
				}
			}
		}
	}
}
