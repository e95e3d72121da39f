// Package mgard implements an MGARD-style multilevel decomposition of
// uniform-grid data in 1, 2, or 3 (or more) dimensions, with two selectable
// decomposition bases:
//
//   - Hierarchical (HB): detail coefficients are interpolation residuals at
//     odd nodes; coarse nodes keep their nodal values. This is the paper's
//     PMGARD-HB revision (§V-B): no cross-level intervention, so the L∞
//     reconstruction error is bounded by a *sum* of per-level coefficient
//     bounds — tight and cheap.
//
//   - Orthogonal (OB): after computing details, an L2 projection correction
//     (a tridiagonal mass-matrix solve per grid line) is added to the coarse
//     nodes, following MGARD's original decomposition. The projection is
//     optimal in L2 but makes conservative L∞ estimates markedly looser —
//     exactly the over-retrieval effect the paper measures in Fig. 3.
//
// The transform is exactly invertible (reconstruction recomputes the same
// correction from the retrieved details and subtracts it), so correctness
// never depends on the projection; only rate and estimate tightness do.
//
// Coefficients are exposed as per-level groups (group 0 = coarsest nodal
// values, then detail levels coarse→fine) for bit-plane encoding, and
// ErrorBound converts per-group L∞ bounds into a guaranteed bound on the
// reconstructed data, using per-level amplification factors derived in the
// comments of levelFactor.
package mgard

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"progqoi/internal/grid"
)

// Basis selects the decomposition variant.
type Basis int

const (
	// Hierarchical is interpolation-only (PMGARD-HB).
	Hierarchical Basis = iota
	// Orthogonal adds MGARD's L2-projection correction (PMGARD / OB).
	Orthogonal
)

// String implements fmt.Stringer.
func (b Basis) String() string {
	switch b {
	case Hierarchical:
		return "HB"
	case Orthogonal:
		return "OB"
	default:
		return fmt.Sprintf("Basis(%d)", int(b))
	}
}

// ErrBadInput reports invalid decomposition input.
var ErrBadInput = errors.New("mgard: invalid input")

// Decomposition holds the transformed coefficients of one field, or, made
// by NewShape, only the shape a reader recomposes into.
//
// A Decomposition also holds the scratch its transforms reuse (line
// counters, the orthogonal basis' tridiagonal solve and Recompose's
// chunk), so it is for one goroutine at a time: concurrent calls on one
// Decomposition, even to Recompose, race.
type Decomposition struct {
	Basis Basis
	Grid  *grid.Grid
	Steps int // number of level-halving steps applied (≥ 0)

	coeffs []float64 // transformed array, same layout as input; nil in a shape
	// dimsAtLevel[l] = number of dimensions that actually transformed at
	// level l (a dim participates while 2^l < extent).
	dimsAtLevel []int
	// runs[g] is group g's flat offset walk and sizes[g] its length, both
	// built once with the shape.
	runs  [][]run
	sizes []int

	ctr   []int     // transformDim's odometer, one counter per dim
	f, cp []float64 // correction's Thomas solve
	chunk []float64 // Recompose's group values, at most recomposeChunk
}

// run is a stretch of one group along the last dimension: n coefficients
// at off, off+step, off+2·step, ….
type run struct{ off, step, n int }

// NewShape returns the shape of a decomposition of g under basis: its
// group tables and transform scratch, without coefficients. Recompose,
// GroupSize and ErrorBound work on it; Group and AppendGroup need the
// coefficients of a Decompose.
func NewShape(g *grid.Grid, basis Basis) *Decomposition {
	steps := g.NumLevels() - 1
	d := &Decomposition{
		Basis:       basis,
		Grid:        g.Clone(),
		Steps:       steps,
		dimsAtLevel: make([]int, steps),
		runs:        make([][]run, steps+1),
		sizes:       make([]int, steps+1),
		ctr:         make([]int, g.NDims()),
	}
	for l := range d.dimsAtLevel {
		s := grid.LevelStride(l)
		for dim := 0; dim < g.NDims(); dim++ {
			if s < g.Dim(dim) { // at least one odd node exists along dim
				d.dimsAtLevel[l]++
			}
		}
	}
	for gi := range d.runs {
		d.runs[gi] = d.groupRuns(gi)
		for _, r := range d.runs[gi] {
			d.sizes[gi] += r.n
		}
	}
	return d
}

// Decompose transforms data (row-major on g) into multilevel coefficients.
// The input slice is not modified. Values must be finite.
func Decompose(data []float64, g *grid.Grid, basis Basis) (*Decomposition, error) {
	return DecomposeInto(nil, data, g, basis)
}

// DecomposeInto is Decompose into d's storage: when d has shape g and the
// same basis, its coefficient array and group tables are reused and d is
// returned; otherwise (d nil included) a new decomposition is. Either way
// d's previous coefficients are gone, so a pack can run one decomposition
// per variable through the same arrays.
func DecomposeInto(d *Decomposition, data []float64, g *grid.Grid, basis Basis) (*Decomposition, error) {
	if err := g.Validate(data); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite value at index %d", ErrBadInput, i)
		}
	}
	if d == nil || d.Basis != basis || !d.Grid.Equal(g) {
		d = NewShape(g, basis)
	}
	if d.coeffs == nil {
		d.coeffs = make([]float64, g.Size())
	}
	copy(d.coeffs, data)
	for l := 0; l < d.Steps; l++ {
		s := grid.LevelStride(l)
		for dim := 0; dim < g.NDims(); dim++ {
			if s < g.Dim(dim) {
				d.transformDim(d.coeffs, dim, s, false)
			}
		}
	}
	return d, nil
}

// NumGroups returns the number of coefficient groups: 1 (coarsest nodal
// values) + Steps detail levels.
func (d *Decomposition) NumGroups() int { return d.Steps + 1 }

// GroupLevel maps a group index to its detail level: group 0 (coarsest) has
// no level (-1); group k > 0 holds the details introduced at level
// Steps - k (group 1 = coarsest details, last group = finest details).
func (d *Decomposition) GroupLevel(gIdx int) int {
	if gIdx == 0 {
		return -1
	}
	return d.Steps - gIdx
}

// groupRuns lists the flat offsets of group gIdx as runs along the last
// dimension, in a fixed deterministic (row-major) order. A group is every
// node of its level's lattice with at least one odd lattice coordinate
// (group 0: every node of the coarsest lattice); a dim too short to have
// nodes at that stride contributes coordinate 0 only.
func (d *Decomposition) groupRuns(gIdx int) []run {
	g := d.Grid
	last := g.NDims() - 1
	var coarse, fine int
	if gIdx == 0 {
		coarse = grid.LevelStride(d.Steps)
		fine = -1 // all nodes on the coarsest lattice
	} else {
		fine = grid.LevelStride(d.GroupLevel(gIdx))
		coarse = fine * 2
	}
	var out []run
	var walk func(dim, off int, anyOdd bool)
	walk = func(dim, off int, anyOdd bool) {
		ext := g.Dim(dim)
		stride := g.Stride(dim)
		if dim == last {
			switch {
			case fine < 0:
				out = append(out, run{off, coarse * stride, (ext + coarse - 1) / coarse})
			case fine >= ext:
				if anyOdd {
					out = append(out, run{off, stride, 1})
				}
			case anyOdd:
				out = append(out, run{off, fine * stride, (ext + fine - 1) / fine})
			default: // only the odd lattice coordinates
				if n := (ext + fine - 1) / fine / 2; n > 0 {
					out = append(out, run{off + fine*stride, 2 * fine * stride, n})
				}
			}
			return
		}
		switch {
		case fine < 0:
			for c := 0; c < ext; c += coarse {
				walk(dim+1, off+c*stride, false)
			}
		case fine >= ext:
			walk(dim+1, off, anyOdd)
		default:
			for c := 0; c < ext; c += fine {
				walk(dim+1, off+c*stride, anyOdd || (c/fine)%2 == 1)
			}
		}
	}
	walk(0, 0, false)
	return out
}

// GroupSize returns the number of coefficients in group gIdx.
func (d *Decomposition) GroupSize(gIdx int) int { return d.sizes[gIdx] }

// Group copies the coefficients of group gIdx.
func (d *Decomposition) Group(gIdx int) []float64 {
	return d.AppendGroup(make([]float64, 0, d.sizes[gIdx]), gIdx)
}

// AppendGroup appends the coefficients of group gIdx to dst, in Group's
// order. With GroupSize(gIdx) values of spare capacity in dst it allocates
// nothing.
func (d *Decomposition) AppendGroup(dst []float64, gIdx int) []float64 {
	for _, r := range d.runs[gIdx] {
		for k, off := 0, r.off; k < r.n; k, off = k+1, off+r.step {
			dst = append(dst, d.coeffs[off])
		}
	}
	return dst
}

// recomposeChunk bounds the group values Recompose holds at once: 32 KiB,
// and a multiple of 8, so every chunk after a group's first starts on a
// byte of a bitmap over the group.
const recomposeChunk = 4096

// Recompose writes the field the decomposition's coefficients stand for
// into dst, which must hold Grid.Size() values. fill supplies the
// coefficients: fill(g, lo, vals) writes coefficients [lo, lo+len(vals))
// of group g, in Group's order, into vals. Recompose asks for every group
// in chunks of at most recomposeChunk values and scatters each chunk
// through the group's run table into dst. The groups cover every point
// exactly once, so this overwrites all of dst. The inverse transform then
// runs on dst in place. Beyond its first call on d, it allocates nothing.
func (d *Decomposition) Recompose(dst []float64, fill func(g, lo int, vals []float64)) {
	if len(dst) != d.Grid.Size() {
		panic(fmt.Sprintf("mgard: Recompose into %d values, want %d", len(dst), d.Grid.Size()))
	}
	if d.chunk == nil {
		d.chunk = make([]float64, min(recomposeChunk, slices.Max(d.sizes)))
	}
	for gi, runs := range d.runs {
		ri, k := 0, 0 // the next coefficient: run ri, position k
		for lo := 0; lo < d.sizes[gi]; lo += len(d.chunk) {
			vals := d.chunk[:min(len(d.chunk), d.sizes[gi]-lo)]
			fill(gi, lo, vals)
			for len(vals) > 0 {
				r := runs[ri]
				n := min(r.n-k, len(vals))
				off := r.off + k*r.step
				for _, v := range vals[:n] {
					dst[off] = v
					off += r.step
				}
				vals = vals[n:]
				if k += n; k == r.n {
					ri, k = ri+1, 0
				}
			}
		}
	}
	d.inverse(dst)
}

// inverse undoes, in place on c, every decomposition step, finest level
// first.
func (d *Decomposition) inverse(c []float64) {
	for lev := d.Steps - 1; lev >= 0; lev-- {
		s := grid.LevelStride(lev)
		for dim := d.Grid.NDims() - 1; dim >= 0; dim-- {
			if s < d.Grid.Dim(dim) {
				d.transformDim(c, dim, s, true)
			}
		}
	}
}

// levelFactor returns the guaranteed L∞ amplification of a detail-group
// coefficient error at a level transforming ndims dimensions.
//
// Derivation (per 1-D inverse pass, coefficient error a, incoming value
// error b):
//
//	HB: even nodes keep error b; odd nodes get a + interp ≤ a + b.
//	    Composing D passes where coefficients may themselves be outputs of
//	    earlier passes yields error ≤ b + (2^D − 1)·a.
//	OB: the correction w solves M w = f with Varah bound ‖M⁻¹‖∞ ≤ 3 (the
//	    boundary diagonal is lumped to 1/2 to keep dominance 1/3) and load
//	    |f| ≤ a/2, so |w err| ≤ 1.5a; even nodes: b + 1.5a, odd nodes:
//	    a + (b + 1.5a) = b + 2.5a. Composing D passes: b + (3.5^D − 1)·a.
func levelFactor(basis Basis, ndims int) float64 {
	if ndims <= 0 {
		return 0
	}
	switch basis {
	case Orthogonal:
		return math.Pow(3.5, float64(ndims)) - 1
	default:
		return math.Pow(2, float64(ndims)) - 1
	}
}

// LevelFactors returns the per-group error amplification factors in group
// order (coarsest first, factor 1). ErrorBound is the dot product of these
// factors with per-group coefficient bounds.
func (d *Decomposition) LevelFactors() []float64 {
	out := make([]float64, d.NumGroups())
	out[0] = 1
	for g := 1; g < d.NumGroups(); g++ {
		out[g] = levelFactor(d.Basis, d.dimsAtLevel[d.GroupLevel(g)])
	}
	return out
}

// ErrorBound converts per-group coefficient L∞ bounds (len = NumGroups, in
// group order: coarsest first) into a guaranteed L∞ bound on Recompose's
// output: slack plus the dot product of LevelFactors with groupBounds,
// summed from the slack in group order. Every PMGARD bound a refactorer
// records or a reader reports is this sum, so the two agree bit for bit.
// It panics if groupBounds has the wrong length.
func (d *Decomposition) ErrorBound(groupBounds []float64, slack float64) float64 {
	if len(groupBounds) != d.NumGroups() {
		panic(fmt.Sprintf("mgard: want %d group bounds, got %d", d.NumGroups(), len(groupBounds)))
	}
	// Coarsest nodal values propagate with factor 1 (they are carried, or
	// for OB additionally corrected by w recomputed from details — the
	// detail contribution is already charged to the detail groups).
	total := slack + groupBounds[0]
	for g := 1; g < d.NumGroups(); g++ {
		total += levelFactor(d.Basis, d.dimsAtLevel[d.GroupLevel(g)]) * groupBounds[g]
	}
	return total
}

// transformDim applies one decomposition step along dim with node stride
// s to c, or undoes it when inverse is set. It visits every active line:
// all other coords are multiples of s (and 0 when their extent ≤ s); along
// dim the nodes are s apart. Lines touch disjoint nodes, so the visiting
// order, an odometer over the other dims, does not affect the result.
func (d *Decomposition) transformDim(c []float64, dim, s int, inverse bool) {
	g := d.Grid
	m := (g.Dim(dim) + s - 1) / s
	step := s * g.Stride(dim)
	ctr := d.ctr
	clear(ctr)
	for base := 0; ; {
		if inverse {
			d.inverseLine(c, base, step, m)
		} else {
			d.forwardLine(c, base, step, m)
		}
		k := g.NDims() - 1
		for ; k >= 0; k-- {
			if k == dim || s >= g.Dim(k) {
				continue // coordinate pinned to 0
			}
			ctr[k] += s
			base += s * g.Stride(k)
			if ctr[k] < g.Dim(k) {
				break
			}
			base -= ctr[k] * g.Stride(k)
			ctr[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// forwardLine transforms one line of m nodes at c[base], c[base+step], …:
// odd positions become detail coefficients, and under OB the even
// positions receive the projection correction.
func (d *Decomposition) forwardLine(c []float64, base, step, m int) {
	if m < 2 {
		return
	}
	// Details at odd positions.
	for i, off := 1, base+step; i < m; i, off = i+2, off+2*step {
		var pred float64
		if i+1 < m {
			pred = 0.5 * (c[off-step] + c[off+step])
		} else {
			pred = c[off-step]
		}
		c[off] -= pred
	}
	if d.Basis == Orthogonal {
		for j, w := range d.correction(c, base, step, m) {
			c[base+2*j*step] += w
		}
	}
}

// inverseLine undoes forwardLine exactly.
func (d *Decomposition) inverseLine(c []float64, base, step, m int) {
	if m < 2 {
		return
	}
	if d.Basis == Orthogonal {
		for j, w := range d.correction(c, base, step, m) {
			c[base+2*j*step] -= w
		}
	}
	for i, off := 1, base+step; i < m; i, off = i+2, off+2*step {
		var pred float64
		if i+1 < m {
			pred = 0.5 * (c[off-step] + c[off+step])
		} else {
			pred = c[off-step]
		}
		c[off] += pred
	}
}

// correction computes the L2-projection correction w for the coarse nodes of
// a line from its current detail coefficients, solving the tridiagonal
// system M w = f (Thomas algorithm). It depends only on detail entries, so
// forward and inverse recompute identical values. The result lives in the
// decomposition's scratch until the next call.
func (d *Decomposition) correction(c []float64, base, step, m int) []float64 {
	nc := (m + 1) / 2 // coarse node count
	if cap(d.f) < nc {
		d.f, d.cp = make([]float64, nc), make([]float64, nc)
	}
	f := d.f[:nc]
	for j := 0; j < nc; j++ {
		var load float64
		li := 2 * j
		if li-1 >= 0 {
			load += c[base+(li-1)*step]
		}
		if li+1 < m {
			load += c[base+(li+1)*step]
		}
		f[j] = load / 4
	}
	// Tridiagonal M: interior diag 2/3, boundary diag 1/2 (lumped for the
	// Varah bound, see levelFactor), off-diagonals 1/6.
	diag := func(j int) float64 {
		if j == 0 || j == nc-1 {
			return 0.5
		}
		return 2.0 / 3.0
	}
	if nc == 1 {
		f[0] /= diag(0)
		return f
	}
	const off = 1.0 / 6.0
	// Thomas forward sweep.
	cp := d.cp[:nc]
	cp[0] = off / diag(0)
	f[0] /= diag(0)
	for j := 1; j < nc; j++ {
		denom := diag(j) - off*cp[j-1]
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
