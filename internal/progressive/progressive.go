// Package progressive implements the three error-controlled progressive
// representations the paper integrates and compares (§V-B):
//
//   - PSZ3: multiple independent SZ snapshots at preset error bounds. A
//     retrieval fetches the single snapshot matching the request; tightening
//     across a session re-fetches, so redundancy accumulates (the staircase
//     in Fig. 2).
//
//   - PSZ3-Delta: snapshots compress residuals against the previous
//     reconstruction, so a session fetches a prefix of snapshots with no
//     redundancy.
//
//   - PMGARD / PMGARD-HB: a multilevel decomposition (orthogonal or
//     hierarchical basis) whose per-level coefficient groups are bit-plane
//     encoded; retrieval streams (group, plane) fragments in a greedy
//     benefit-per-byte order with an exactly tracked L∞ bound.
//
// Every representation satisfies the paper's Definition 1: refactor into
// fragments, reconstruct from any served prefix with a guaranteed L∞ bound.
// A Reader tracks cumulative retrieved bytes, which is what the evaluation
// plots as bitrate.
package progressive

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"progqoi/internal/bitplane"
	"progqoi/internal/encoding"
	"progqoi/internal/grid"
	"progqoi/internal/mgard"
	"progqoi/internal/par"
	"progqoi/internal/stats"
	"progqoi/internal/sz"
)

// Method identifies a progressive representation.
type Method int

const (
	// PSZ3 stores independent snapshots at preset bounds.
	PSZ3 Method = iota
	// PSZ3Delta stores residual snapshots at preset bounds.
	PSZ3Delta
	// PMGARD uses the orthogonal-basis decomposition with bit planes.
	PMGARD
	// PMGARDHB uses the hierarchical-basis decomposition with bit planes.
	PMGARDHB
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case PSZ3:
		return "PSZ3"
	case PSZ3Delta:
		return "PSZ3-delta"
	case PMGARD:
		return "PMGARD"
	case PMGARDHB:
		return "PMGARD-HB"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Order selects the fragment schedule for the PMGARD methods.
type Order int

const (
	// GreedyOrder streams fragments by error-reduction per byte (default).
	GreedyOrder Order = iota
	// LevelMajorOrder streams all planes of each level before the next,
	// coarse to fine; kept as the ablation baseline.
	LevelMajorOrder
)

// Options configures Refactor.
type Options struct {
	Method Method
	// SnapshotEBs are the preset absolute error bounds for the snapshot
	// methods, strictly decreasing. Empty selects 16 decades starting at
	// 1/10 of the data range (the paper's ε_i = 10^-i relative ladder).
	SnapshotEBs []float64
	// Order is the PMGARD fragment schedule (default greedy).
	Order Order
	// LosslessTail appends a bit-exact final fragment to snapshot methods
	// so any tolerance can be met. It is off unless set: progqoi.Refactor
	// sets it, and a caller of this package's Refactor that leaves it
	// false gets no tail.
	LosslessTail bool
	// Workers bounds Refactor's encode workers (default GOMAXPROCS): PMGARD
	// methods spread the chunked plane slicing and the per-(group, plane)
	// compression over them, and PSZ3 compresses its independent snapshots
	// concurrently. 1 selects the fully sequential path; the refactored
	// output is bit-identical either way. PSZ3-Delta stays sequential
	// regardless — each snapshot compresses the residual of the previous
	// reconstruction. RefactorOn ignores it and runs on the budget it is
	// given, so only direct Refactor callers set it.
	Workers int
}

func (o Options) withDefaults(dataRange float64) Options {
	if len(o.SnapshotEBs) == 0 {
		base := dataRange
		if base == 0 {
			base = 1
		}
		for i := 1; i <= 16; i++ {
			o.SnapshotEBs = append(o.SnapshotEBs, base*math.Pow(10, -float64(i)))
		}
	}
	return o
}

// ErrBadRequest reports an invalid retrieval request.
var ErrBadRequest = errors.New("progressive: invalid request")

// fragRef addresses one PMGARD fragment.
type fragRef struct {
	Group, Plane int
}

// Refactored is one variable's progressive representation: opaque ordered
// fragments plus the metadata needed to plan retrieval.
type Refactored struct {
	Method Method
	Dims   []int

	// Fragments in retrieval order. For snapshot methods fragment i is
	// snapshot i (optionally ending in a lossless tail); for PMGARD methods
	// fragment i is the plane identified by Schedule[i].
	Fragments [][]byte

	// PrefixBounds[i] is the guaranteed L∞ bound after ingesting fragments
	// 0..i. For PSZ3 (independent snapshots) it is the bound of snapshot i
	// alone.
	PrefixBounds []float64

	// Snapshot methods only.
	SnapshotEBs []float64
	HasTail     bool

	// PMGARD methods only.
	Basis    mgard.Basis
	Planes   int
	Blocks   []*bitplane.Block // per group, shape only (no Signs or Planes)
	Schedule []fragRef
}

// TotalBytes returns the total stored fragment bytes.
func (r *Refactored) TotalBytes() int64 {
	var n int64
	for _, f := range r.Fragments {
		n += int64(len(f))
	}
	return n
}

// NumElements returns the element count of the refactored field.
func (r *Refactored) NumElements() int {
	n := 1
	for _, d := range r.Dims {
		n *= d
	}
	return n
}

// Refactor produces the progressive representation of data (row-major on
// dims) under the given options.
func Refactor(data []float64, dims []int, opt Options) (*Refactored, error) {
	return RefactorOn(par.New(opt.Workers), data, dims, opt)
}

// RefactorOn is Refactor with its encode tasks run on budget b instead of
// one sized by opt.Workers, so refactors running concurrently under one
// budget share it.
func RefactorOn(b *par.Budget, data []float64, dims []int, opt Options) (*Refactored, error) {
	g, err := grid.New(dims...)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(data); err != nil {
		return nil, err
	}
	rng := stats.Range(data)
	opt = opt.withDefaults(rng)
	switch opt.Method {
	case PSZ3, PSZ3Delta:
		return refactorSnapshots(b, data, g, opt)
	case PMGARD, PMGARDHB:
		return refactorMultilevel(b, data, g, opt)
	default:
		return nil, fmt.Errorf("progressive: unknown method %d", opt.Method)
	}
}

func refactorSnapshots(b *par.Budget, data []float64, g *grid.Grid, opt Options) (*Refactored, error) {
	for i := 1; i < len(opt.SnapshotEBs); i++ {
		if !(opt.SnapshotEBs[i] < opt.SnapshotEBs[i-1]) {
			return nil, fmt.Errorf("progressive: snapshot bounds must strictly decrease, got %v", opt.SnapshotEBs)
		}
	}
	if opt.SnapshotEBs[0] <= 0 {
		return nil, fmt.Errorf("progressive: snapshot bounds must be positive")
	}
	r := &Refactored{
		Method:      opt.Method,
		Dims:        g.Dims(),
		SnapshotEBs: append([]float64(nil), opt.SnapshotEBs...),
		HasTail:     opt.LosslessTail,
	}
	delta := opt.Method == PSZ3Delta
	if !delta {
		// PSZ3 snapshots are independent compressions of the same data, so
		// they (and the lossless tail) run as tasks on the budget. Each
		// task writes only its own slot; assembly below is in preset order,
		// so the fragment stream is bit-identical to the sequential path.
		nfrag := len(opt.SnapshotEBs)
		if opt.LosslessTail {
			nfrag++
		}
		frags := make([][]byte, nfrag)
		errs := make([]error, nfrag)
		b.For(nfrag, func(_, i int) bool {
			if i == len(opt.SnapshotEBs) {
				frags[i], errs[i] = encodeLossless(data)
				return true
			}
			frags[i], errs[i] = sz.Compress(data, g, opt.SnapshotEBs[i])
			return true
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		r.Fragments = frags
		r.PrefixBounds = append(r.PrefixBounds, opt.SnapshotEBs...)
		if opt.LosslessTail {
			r.PrefixBounds = append(r.PrefixBounds, 0)
		}
		return r, nil
	}
	// PSZ3-Delta is inherently sequential: every snapshot compresses the
	// residual of the reconstruction so far.
	recon := make([]float64, len(data))
	for _, eb := range opt.SnapshotEBs {
		residual := make([]float64, len(data))
		for i := range residual {
			residual[i] = data[i] - recon[i]
		}
		buf, err := sz.Compress(residual, g, eb)
		if err != nil {
			return nil, err
		}
		dec, _, _, err := sz.Decompress(buf)
		if err != nil {
			return nil, err
		}
		for i := range recon {
			recon[i] += dec[i]
		}
		r.Fragments = append(r.Fragments, buf)
		r.PrefixBounds = append(r.PrefixBounds, eb)
	}
	if opt.LosslessTail {
		residual := make([]float64, len(data))
		for i := range residual {
			residual[i] = data[i] - recon[i]
		}
		tail, err := encodeLossless(residual)
		if err != nil {
			return nil, err
		}
		r.Fragments = append(r.Fragments, tail)
		r.PrefixBounds = append(r.PrefixBounds, 0)
	}
	return r, nil
}

func encodeLossless(data []float64) ([]byte, error) {
	return encoding.PutTagged(encoding.PutFloat64s(data))
}

func decodeLossless(buf []byte, want int) ([]float64, error) {
	raw, err := encoding.GetTagged(buf, 4+8*want) // PutFloat64s: u32 count, then the values
	if err != nil {
		return nil, fmt.Errorf("lossless fragment: %w", err)
	}
	vals, _, err := encoding.GetFloat64s(raw)
	if err != nil {
		return nil, err
	}
	if len(vals) != want {
		return nil, fmt.Errorf("%w: lossless fragment has %d values, want %d", encoding.ErrCorrupt, len(vals), want)
	}
	return vals, nil
}

func refactorMultilevel(b *par.Budget, data []float64, g *grid.Grid, opt Options) (*Refactored, error) {
	basis := mgard.Hierarchical
	if opt.Method == PMGARD {
		basis = mgard.Orthogonal
	}
	sc, _ := scratchPool.Get().(*multilevelScratch)
	if sc == nil {
		sc = &multilevelScratch{}
	}
	defer scratchPool.Put(sc)
	dec, err := mgard.DecomposeInto(sc.dec, data, g, basis)
	if err != nil {
		return nil, err
	}
	sc.dec = dec
	nGroups := dec.NumGroups()
	r := &Refactored{
		Method: opt.Method,
		Dims:   g.Dims(),
		Basis:  basis,
		Planes: bitplane.DefaultPlanes,
		Blocks: make([]*bitplane.Block, nGroups),
	}
	factors := dec.LevelFactors()
	type fragMeta struct {
		ref     fragRef
		size    int
		benefit float64 // weighted bound reduction
	}
	// Encode each group, every (group, plane) compression a task on the
	// budget; the greedy schedule below then walks the finished blocks
	// sequentially, so fragment order — and every byte — matches the
	// sequential encode.
	perGroupNext := make([]int, nGroups)
	groups := make([][]float64, nGroups)
	if cap(sc.coeffs) < len(data) {
		sc.coeffs = make([]float64, 0, len(data))
	}
	all := sc.coeffs[:0]
	for gi := 0; gi < nGroups; gi++ {
		lo := len(all)
		all = dec.AppendGroup(all, gi)
		groups[gi] = all[lo:len(all):len(all)]
	}
	blocks, err := bitplane.EncodeAllOn(b, groups, bitplane.DefaultPlanes)
	if err != nil {
		return nil, err
	}
	// Current per-group applied plane counts and running bound.
	bounds := make([]float64, nGroups)
	for gi := range bounds {
		bounds[gi] = blocks[gi].Bound(0)
	}
	slack := roundoffSlack(blocks)
	next := func(gi int) (fragMeta, bool) {
		k := perGroupNext[gi]
		if k >= blocks[gi].B || blocks[gi].Bound(0) == 0 {
			// Exhausted, or an all-zero block that needs no fragments.
			return fragMeta{}, false
		}
		redux := blocks[gi].Bound(k) - blocks[gi].Bound(k+1)
		return fragMeta{
			ref:     fragRef{Group: gi, Plane: k},
			size:    blocks[gi].PlaneSize(k),
			benefit: factors[gi] * redux,
		}, true
	}
	appendFrag := func(fm fragMeta) {
		gi, p := fm.ref.Group, fm.ref.Plane
		// The sign fragment rides with the first plane.
		r.Fragments = append(r.Fragments, blocks[gi].Fragment(p))
		r.Schedule = append(r.Schedule, fm.ref)
		perGroupNext[gi] = p + 1
		bounds[gi] = blocks[gi].Bound(p + 1)
		r.PrefixBounds = append(r.PrefixBounds, dec.ErrorBound(bounds, slack))
	}
	switch opt.Order {
	case LevelMajorOrder:
		for gi := 0; gi < nGroups; gi++ {
			for {
				fm, ok := next(gi)
				if !ok {
					break
				}
				appendFrag(fm)
			}
		}
	default: // GreedyOrder
		for {
			best, found := fragMeta{}, false
			for gi := 0; gi < nGroups; gi++ {
				fm, ok := next(gi)
				if !ok {
					continue
				}
				if !found || better(fm.benefit, fm.size, best.benefit, best.size) {
					best, found = fm, true
				}
			}
			if !found {
				break
			}
			appendFrag(best)
		}
	}
	// The metadata blocks keep the shape only: fragments carry the payloads.
	for gi, blk := range blocks {
		r.Blocks[gi] = &bitplane.Block{N: blk.N, Exp: blk.Exp, B: blk.B}
	}
	return r, nil
}

// roundoffSlack is the floating-point slack every PMGARD bound carries on
// top of the theoretical estimate, scale·2⁻⁴⁶ (≈64 ulp) of the loosest
// group's no-data bound: the inverse transform itself accumulates
// round-off that the coefficient-level theory does not see.
func roundoffSlack(blocks []*bitplane.Block) float64 {
	slack := 0.0
	for _, blk := range blocks {
		slack = max(slack, blk.Bound(0)*math.Ldexp(1, -46))
	}
	return slack
}

// multilevelScratch is the transform storage of one multilevel refactor,
// kept in scratchPool for the next: the decomposition, reused whenever
// the next field has the same shape and basis, and the group-ordered copy
// of its coefficients that the bit-plane encode reads. Nothing a refactor
// returns aliases either.
type multilevelScratch struct {
	dec    *mgard.Decomposition
	coeffs []float64
}

var scratchPool sync.Pool // of *multilevelScratch

// better reports whether benefit/size a beats b, avoiding division (sizes
// can be zero for all-zero groups: treat them as infinitely good).
func better(benA float64, sizeA int, benB float64, sizeB int) bool {
	if sizeA == 0 || sizeB == 0 {
		if sizeA == 0 && sizeB == 0 {
			return benA > benB
		}
		return sizeA == 0 && benA > 0
	}
	return benA*float64(sizeB) > benB*float64(sizeA)
}
