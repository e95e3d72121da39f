package progressive

import (
	"context"
	"errors"
	"fmt"
	"math"

	"progqoi/internal/bitplane"
	"progqoi/internal/encoding"
	"progqoi/internal/grid"
	"progqoi/internal/mgard"
	"progqoi/internal/obs"
	"progqoi/internal/par"
	"progqoi/internal/sz"
)

// ErrShortFragment reports a fragment that is missing, empty, or addressed
// outside the representation — the failure mode of a plan raced against a
// mutated Refactored or of a truncated remote payload. It is returned as a
// typed error instead of letting the ingest path index out of range.
var ErrShortFragment = errors.New("progressive: short or missing fragment")

// FetchFunc observes fragment retrieval: it is invoked exactly once per
// successfully ingested fragment with its byte size, serially and in plan
// order, after the fragment decodes cleanly (a fragment that fails to
// decode is never reported). The network simulator and the byte accounting
// hook in here. A nil FetchFunc is allowed.
type FetchFunc func(fragIndex int, size int64)

// Reader incrementally retrieves a Refactored variable. It implements the
// paper's progressive_construct: each Advance ingests just enough additional
// fragments to guarantee the requested L∞ bound, reusing everything already
// retrieved.
type Reader struct {
	src   *Refactored
	fetch FetchFunc

	// budget runs Advance's decode and apply tasks; with one worker they
	// run on the calling goroutine. Any budget gives the same result.
	budget *par.Budget

	// trace, when non-nil, records one decode span per Advance that
	// ingests fragments; traceName labels it (the variable name) and
	// traceIter tags the owning retrieval iteration.
	trace     *obs.Trace
	traceName string
	traceIter int

	nextFrag  int
	bound     float64
	retrieved int64

	// The reconstruction: a snapshot method's running field, or the PMGARD
	// recompose output, rebuilt in place when dirty. mask marks the points
	// that read zero. PSZ3 zeroes them as each snapshot lands and PMGARD
	// after each rebuild. PSZ3-Delta accumulates into data, so there masked
	// is the masked copy Data returns, refreshed when dirty.
	data   []float64
	mask   []bool
	masked []float64
	dirty  bool

	// PMGARD state. blocks is the Refactored's own metadata, shared with
	// every other reader over it and never written. shape is what data is
	// recomposed through, and slack the blocks' roundoffSlack.
	blocks []*bitplane.Block
	decs   []*bitplane.Decoder
	shape  *mgard.Decomposition
	slack  float64
	grd    *grid.Grid

	// bitmaps[g] are group g's free plane-bitmap buffers. A DEFLATE plane
	// is inflated into one (takeBitmap), and a bitmap is dead once OrPlane
	// has applied it, so advancePlanes frees its buffer for the next
	// Advance, up to keptBitmaps per group.
	bitmaps [][][]byte
}

// NewReader opens a reader over r. No fragments are fetched yet; Bound()
// starts at the no-data bound and Data() returns zeros.
func NewReader(r *Refactored, fetch FetchFunc) (*Reader, error) {
	g, err := grid.New(r.Dims...)
	if err != nil {
		return nil, err
	}
	rd := &Reader{src: r, fetch: fetch, grd: g, bound: math.Inf(1), dirty: true, budget: par.New(0)}
	rd.data = make([]float64, g.Size())
	switch r.Method {
	case PSZ3, PSZ3Delta:
	case PMGARD, PMGARDHB:
		shape := mgard.NewShape(g, r.Basis)
		if shape.NumGroups() != len(r.Blocks) {
			return nil, fmt.Errorf("%w: %d blocks for %d groups", encoding.ErrCorrupt, len(r.Blocks), shape.NumGroups())
		}
		rd.shape = shape
		rd.blocks = r.Blocks
		rd.decs = make([]*bitplane.Decoder, len(r.Blocks))
		rd.bitmaps = make([][][]byte, len(r.Blocks))
		for i, blk := range r.Blocks {
			if blk.N != shape.GroupSize(i) {
				return nil, fmt.Errorf("%w: block %d has %d coefficients, want %d", encoding.ErrCorrupt, i, blk.N, shape.GroupSize(i))
			}
			rd.decs[i] = bitplane.NewDecoder(blk)
		}
		rd.slack = roundoffSlack(r.Blocks)
		rd.bound = rd.pmgardBound()
	default:
		return nil, fmt.Errorf("progressive: unknown method %d", r.Method)
	}
	return rd, nil
}

// SetMask makes Data return zero at every point mask marks, the points
// whose original value is exactly zero. It must come before the first
// Advance. A nil mask (the default) marks none. The reader keeps mask and
// never writes it. It does not change Bound: a masked point is exact.
func (rd *Reader) SetMask(mask []bool) error {
	if rd.nextFrag > 0 {
		return fmt.Errorf("%w: mask set after an Advance", ErrBadRequest)
	}
	if mask != nil && len(mask) != len(rd.data) {
		return fmt.Errorf("%w: mask of %d points for %d", ErrBadRequest, len(mask), len(rd.data))
	}
	rd.mask, rd.masked = mask, nil
	if mask != nil && rd.src.Method == PSZ3Delta {
		rd.masked = make([]float64, len(rd.data))
	}
	return nil
}

// SetWorkers gives the reader a decode budget of its own of n workers
// (at least one): Advance decodes fragments and applies them on up to n
// goroutines, with the same result at any n. The default is GOMAXPROCS.
func (rd *Reader) SetWorkers(n int) { rd.budget = par.New(max(n, 1)) }

// SetBudget makes Advance run its decode and apply tasks on b, which readers
// advancing concurrently can share.
func (rd *Reader) SetBudget(b *par.Budget) { rd.budget = b }

// Workers returns the decode budget's bound.
func (rd *Reader) Workers() int { return rd.budget.Workers() }

// SetTrace attaches a span recorder labelled with the variable name this
// reader serves. A nil trace (the default) records nothing and leaves
// the ingest path allocation-free.
func (rd *Reader) SetTrace(tr *obs.Trace, name string) {
	rd.trace = tr
	rd.traceName = name
}

// SetTraceIter tags subsequent decode spans with the owning retrieval
// iteration number.
func (rd *Reader) SetTraceIter(iter int) { rd.traceIter = iter }

// Bound returns the current guaranteed L∞ bound of Data() versus the
// original field. Before any fragment arrives it is +Inf for snapshot
// methods and the zero-data bound for PMGARD methods.
func (rd *Reader) Bound() float64 { return rd.bound }

// RetrievedBytes returns the cumulative fragment bytes fetched so far.
func (rd *Reader) RetrievedBytes() int64 { return rd.retrieved }

// Exhausted reports whether every fragment has been ingested.
func (rd *Reader) Exhausted() bool { return rd.nextFrag >= len(rd.src.Fragments) }

// Plan returns the indices of the fragments the next Advance(target) will
// ingest, in ingestion order, without fetching or ingesting anything —
// Advance itself executes this plan. A remote retrieval layer uses it to
// pull every needed fragment in one batched round trip before Advance
// runs. An invalid or already-satisfied target plans nothing.
func (rd *Reader) Plan(target float64) []int {
	if target < 0 || math.IsNaN(target) || rd.bound <= target {
		return nil
	}
	// Never plan past the metadata actually present: a Refactored whose
	// fragment list and bound/schedule tables disagree (truncated metadata,
	// concurrent mutation) yields a shorter plan instead of an index panic;
	// the ingest path then reports the inconsistency as ErrShortFragment.
	n := len(rd.src.Fragments)
	if len(rd.src.PrefixBounds) < n {
		n = len(rd.src.PrefixBounds)
	}
	switch rd.src.Method {
	case PSZ3:
		// The loosest not-yet-passed snapshot meeting target, or the
		// tightest available.
		want := -1
		for i := rd.nextFrag; i < n; i++ {
			if rd.src.PrefixBounds[i] <= target {
				want = i
				break
			}
		}
		if want < 0 {
			want = n - 1
		}
		if want < rd.nextFrag {
			return nil
		}
		return []int{want}
	default:
		// PSZ3Delta and the PMGARD methods ingest the fragment prefix until
		// the tracked bound reaches target.
		var out []int
		b := rd.bound
		for i := rd.nextFrag; b > target && i < n; i++ {
			out = append(out, i)
			b = rd.src.PrefixBounds[i]
		}
		return out
	}
}

// Reach returns the bound Advance(target) would end on, without fetching
// or ingesting anything: the PrefixBounds entry of the last fragment
// Plan(target) reports, or the current bound when the plan is empty. A
// plan that exhausts a PMGARD representation may end lower, on the
// residual truncation bound, but never higher.
func (rd *Reader) Reach(target float64) float64 {
	plan := rd.Plan(target)
	if len(plan) == 0 {
		return rd.bound
	}
	return rd.src.PrefixBounds[plan[len(plan)-1]]
}

// Advance ingests fragments until the guaranteed bound is ≤ target or the
// representation is exhausted. target must be non-negative. It returns the
// achieved bound. The fragments ingested are exactly those Plan(target)
// reports — Advance consumes the plan, so the selection logic cannot
// diverge between the local and remote (prefetching) paths.
//
// Every method runs the same three stages at every worker count: decode
// the planned fragments on the budget, apply them to the reconstruction
// over disjoint element ranges, then commit accounting and bounds in plan
// order. The budget only chooses which goroutine runs a task, so the
// reconstruction is bit-identical at any Workers. Decoded fragments wait
// for the apply stage in memory: a snapshot method decodes its plan in
// windows of 2×Workers fragments, so it holds at most 2×Workers decoded
// fields of 8 bytes per element; a PMGARD plan holds its decoded bit
// planes, one bit per coefficient and plane, under 8 bytes per element
// for any plan.
//
// ctx is checked before each fragment decodes: on cancellation Advance
// stops early with ctx's error and the bound achieved so far. The planned
// fragments before the first one that did not decode are committed, so the
// reader remains valid and a later Advance resumes from exactly where this
// one stopped. A nil ctx means context.Background().
func (rd *Reader) Advance(ctx context.Context, target float64) (float64, error) {
	if target < 0 || math.IsNaN(target) {
		return rd.bound, fmt.Errorf("%w: target %g", ErrBadRequest, target)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if plan := rd.Plan(target); len(plan) > 0 {
		if rd.trace != nil {
			m := rd.trace.BeginIter(obs.CatDecode, rd.traceName, rd.traceIter)
			defer m.End()
		}
		var err error
		switch rd.src.Method {
		case PSZ3, PSZ3Delta:
			err = rd.advanceSnapshots(ctx, plan)
		default:
			err = rd.advancePlanes(ctx, plan)
		}
		if err != nil {
			return rd.bound, err
		}
	}
	switch rd.src.Method {
	case PMGARD, PMGARDHB:
		if rd.bound > target && rd.Exhausted() {
			// Everything retrieved: the bound is the residual truncation
			// bound.
			rd.bound = rd.pmgardBound()
		}
	}
	return rd.bound, nil
}

// fragment bounds-checks and returns the payload of fragment i without
// accounting for it. A plan raced against a mutated Refactored, or a remote
// layer that failed to install a payload, surfaces here as ErrShortFragment
// instead of an index panic.
func (rd *Reader) fragment(i int) ([]byte, error) {
	if i < 0 || i >= len(rd.src.Fragments) || i >= len(rd.src.PrefixBounds) {
		return nil, fmt.Errorf("%w: fragment %d of %d", ErrShortFragment, i, len(rd.src.Fragments))
	}
	f := rd.src.Fragments[i]
	if len(f) == 0 {
		return nil, fmt.Errorf("%w: fragment %d is empty", ErrShortFragment, i)
	}
	return f, nil
}

// account records fragment i as ingested: observer callback, byte counter,
// cursor. It runs on the reader's goroutine, in plan order.
func (rd *Reader) account(i int, size int) {
	if rd.fetch != nil {
		rd.fetch(i, int64(size))
	}
	rd.retrieved += int64(size)
	rd.nextFrag = i + 1
}

// decodedFrag is the decode stage's output for one fragment: its payload
// decoded without touching reader state, plus what the apply and commit
// stages need.
type decodedFrag struct {
	frag int
	err  error

	// PMGARD planes.
	ref      fragRef
	rawPlane []byte // decompressed plane bitmap
	rawSigns []byte // decompressed sign bitmap (plane 0 only)
	bitmap   []byte // the rd.bitmaps buffer it holds, nil if none

	// Snapshots.
	vals  []float64
	bound float64
}

// decode is the first stage: it decodes every fragment of plan on the
// budget and returns the contiguous prefix that decoded, with the error
// (decode failure or ctx cancellation) that ended it, if any. Committing
// only that prefix leaves the reader exactly as if the plan had stopped
// before the failing fragment.
func (rd *Reader) decode(ctx context.Context, plan []int) ([]decodedFrag, error) {
	tasks := make([]decodedFrag, len(plan))
	for t := range tasks {
		tasks[t].frag = -1 // marks "not run"
		tasks[t].bitmap = rd.takeBitmap(plan[t])
	}
	rd.budget.For(len(plan), func(_, t int) bool {
		if err := ctx.Err(); err != nil {
			tasks[t] = decodedFrag{frag: plan[t], err: err}
			return false
		}
		switch rd.src.Method {
		case PSZ3, PSZ3Delta:
			tasks[t] = rd.decodeSnapshot(plan[t])
		default:
			tasks[t] = rd.decodePlane(plan[t], tasks[t].bitmap)
		}
		return tasks[t].err == nil
	})
	for i := range tasks {
		if tasks[i].err != nil {
			return tasks[:i], tasks[i].err
		}
		if tasks[i].frag < 0 {
			// Task never ran: decoding stopped early. A worker that observed
			// the stop flag may have skipped this slot even though the
			// failure lives at a later index — surface that real error, not
			// a generic one, so the caller sees why decoding stopped.
			for j := i + 1; j < len(tasks); j++ {
				if tasks[j].err != nil {
					return tasks[:i], tasks[j].err
				}
			}
			if err := ctx.Err(); err != nil {
				return tasks[:i], err
			}
			return tasks[:i], fmt.Errorf("%w: decode pool stopped early", ErrShortFragment)
		}
	}
	return tasks, nil
}

// advancePlanes is the PMGARD path: decode decompresses every planned
// fragment (the deflate-dominated cost), the apply stage ORs the new bit
// planes into each group's magnitudes over disjoint coefficient ranges, and
// the commit walks plan order. Plane application only sets independent
// bits, so any execution order yields the same magnitudes.
func (rd *Reader) advancePlanes(ctx context.Context, plan []int) error {
	ok, ferr := rd.decode(ctx, plan)

	// Validate plane contiguity before any decoder mutation: a schedule
	// that skips a plane poisons everything after it, so the fragment that
	// skips and everything after it stay uncommitted.
	expected := make([]int, len(rd.decs)) // per group: next plane, or -1 before its first
	for g := range expected {
		expected[g] = -1
	}
	var groups []int // groups with committed planes, in order of first appearance
	for i := range ok {
		g, p := ok[i].ref.Group, ok[i].ref.Plane
		first := expected[g] < 0
		if first {
			expected[g] = rd.decs[g].Applied()
		}
		if p > expected[g] {
			ferr = fmt.Errorf("%w: fragment %d skips to plane %d/%d (have %d)",
				ErrShortFragment, ok[i].frag, g, p, expected[g])
			ok = ok[:i]
			break
		}
		if first {
			groups = append(groups, g)
		}
		expected[g] = max(expected[g], p+1)
	}

	// Widen, sequentially, the magnitudes of any group about to take its
	// first plane past the narrow ones. Then apply: OR the committed planes
	// into each group's decoder over disjoint coefficient chunks; a chunk
	// applies its group's planes in plan order.
	for _, g := range groups {
		rd.decs[g].Reserve(expected[g])
	}
	type chunk struct{ group, lo, hi int }
	var chunks []chunk
	for _, g := range groups {
		n := rd.blocks[g].N
		size := max((n+rd.Workers()-1)/rd.Workers(), 2048)
		for lo := 0; lo < n; lo += size {
			chunks = append(chunks, chunk{group: g, lo: lo, hi: min(lo+size, n)})
		}
	}
	rd.budget.For(len(chunks), func(_, c int) bool {
		ch := chunks[c]
		dec := rd.decs[ch.group]
		for i := range ok {
			if p := &ok[i]; p.ref.Group == ch.group {
				dec.OrPlane(p.ref.Plane, p.rawPlane, ch.lo, ch.hi)
			}
		}
		return true
	})

	// Commit, in plan order.
	for i := range ok {
		p := &ok[i]
		dec := rd.decs[p.ref.Group]
		if p.ref.Plane == 0 {
			dec.SetSigns(p.rawSigns)
		}
		dec.CommitPlanes(p.ref.Plane + 1)
		rd.account(p.frag, len(rd.src.Fragments[p.frag]))
		rd.bound = rd.src.PrefixBounds[p.frag]
		rd.dirty = true
		if free := rd.bitmaps[p.ref.Group]; p.bitmap != nil && len(free) < keptBitmaps {
			rd.bitmaps[p.ref.Group] = append(free, p.bitmap)
		}
	}
	return ferr
}

// keptBitmaps is the most free plane-bitmap buffers a group keeps between
// Advances: a step of a tolerance ladder inflates one to six planes of a
// group (GE, relative 1e-1 to 1e-5), and an idle reader then pins at most
// keptBitmaps·ceil(N/8) bytes of a group, an eighth of its 32-bit
// magnitudes, however deep its deepest Advance went.
const keptBitmaps = 4

// takeBitmap returns a free buffer of fragment i's group for its plane
// bitmap, or nil when the group has none, the method has no planes, or i
// has no valid schedule entry, which decodePlane then refuses.
func (rd *Reader) takeBitmap(i int) []byte {
	if i < 0 || i >= len(rd.src.Schedule) {
		return nil
	}
	g := rd.src.Schedule[i].Group
	if g < 0 || g >= len(rd.bitmaps) || len(rd.bitmaps[g]) == 0 {
		return nil
	}
	free := rd.bitmaps[g]
	rd.bitmaps[g] = free[:len(free)-1]
	return free[len(free)-1]
}

// decodePlane does the decode stage's work for PMGARD fragment i: bounds
// checks, section parsing, bitmap decompression. A DEFLATE plane bitmap is
// inflated into bitmap, or into a new buffer when bitmap is too small, and
// out.bitmap holds that buffer; the sign bitmap, which the decoder keeps,
// is inflated into a buffer of its own.
func (rd *Reader) decodePlane(i int, bitmap []byte) decodedFrag {
	out := decodedFrag{frag: i, bitmap: bitmap}
	buf, err := rd.fragment(i)
	if err != nil {
		out.err = err
		return out
	}
	if i >= len(rd.src.Schedule) {
		out.err = fmt.Errorf("%w: fragment %d has no schedule entry", ErrShortFragment, i)
		return out
	}
	ref := rd.src.Schedule[i]
	if ref.Group < 0 || ref.Group >= len(rd.blocks) || ref.Plane < 0 || ref.Plane >= rd.blocks[ref.Group].B {
		out.err = fmt.Errorf("%w: fragment %d addresses plane %d/%d", ErrShortFragment, i, ref.Group, ref.Plane)
		return out
	}
	out.ref = ref
	blk := rd.blocks[ref.Group]
	if ref.Plane == 0 {
		signs, n, err := encoding.GetSection(buf)
		if err != nil {
			out.err = err
			return out
		}
		if out.rawSigns, err = blk.RawBitmap(signs); err != nil {
			out.err = fmt.Errorf("bitplane: signs: %w", err)
			return out
		}
		buf = buf[n:]
	}
	plane, _, err := encoding.GetSection(buf)
	if err != nil {
		out.err = err
		return out
	}
	if out.rawPlane, err = blk.RawBitmapInto(plane, &out.bitmap); err != nil {
		out.err = fmt.Errorf("bitplane: plane %d: %w", ref.Plane, err)
	}
	return out
}

// advanceSnapshots is the PSZ3 and PSZ3-Delta path: decode decompresses
// the planned snapshots, and the apply stage writes them into the
// reconstruction per element chunk in plan order. A PSZ3 snapshot replaces
// the reconstruction (re-fetching a tighter one later duplicates bytes —
// PSZ3's inherent redundancy); a PSZ3-Delta residual adds to it, in plan
// order for every element, so the sums are the same at any worker count.
// The plan runs in windows of 2×Workers fragments to bound the decoded
// fields held at once.
func (rd *Reader) advanceSnapshots(ctx context.Context, plan []int) error {
	delta := rd.src.Method == PSZ3Delta
	window := 2 * rd.Workers()
	for start := 0; start < len(plan); start += window {
		ok, ferr := rd.decode(ctx, plan[start:min(start+window, len(plan))])
		if len(ok) > 0 {
			n := len(rd.data)
			size := max((n+rd.Workers()-1)/rd.Workers(), 4096)
			rd.budget.For((n+size-1)/size, func(_, c int) bool {
				lo, hi := c*size, min(c*size+size, n)
				dst := rd.data[lo:hi]
				for t := range ok {
					src := ok[t].vals[lo:hi]
					if !delta {
						copy(dst, src)
						continue
					}
					for j := range dst {
						dst[j] += src[j]
					}
				}
				if !delta {
					rd.zeroMasked(dst, lo)
				}
				return true
			})
			rd.dirty = true
		}
		for i := range ok {
			rd.account(ok[i].frag, len(rd.src.Fragments[ok[i].frag]))
			rd.bound = ok[i].bound
		}
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// decodeSnapshot does the decode stage's work for snapshot fragment i.
func (rd *Reader) decodeSnapshot(i int) decodedFrag {
	out := decodedFrag{frag: i}
	buf, err := rd.fragment(i)
	if err != nil {
		out.err = err
		return out
	}
	if rd.src.HasTail && i == len(rd.src.Fragments)-1 {
		out.vals, out.err = decodeLossless(buf, rd.grd.Size())
		return out
	}
	dec, g, eb, err := sz.Decompress(buf)
	if err != nil {
		out.err = err
		return out
	}
	if !g.Equal(rd.grd) {
		out.err = fmt.Errorf("%w: snapshot grid %v, want %v", encoding.ErrCorrupt, g.Dims(), rd.grd.Dims())
		return out
	}
	out.vals, out.bound = dec, eb
	return out
}

func (rd *Reader) pmgardBound() float64 {
	bounds := make([]float64, len(rd.decs))
	for i, dec := range rd.decs {
		bounds[i] = dec.Bound()
	}
	return rd.shape.ErrorBound(bounds, rd.slack)
}

// zeroMasked zeroes the masked points of out, which holds the elements
// from lo on.
func (rd *Reader) zeroMasked(out []float64, lo int) {
	if rd.mask == nil {
		return
	}
	for i, m := range rd.mask[lo : lo+len(out)] {
		if m {
			out[i] = 0
		}
	}
}

// Data returns the current reconstruction, zero at the points SetMask
// marks. The returned slice is owned by the reader, and the next rebuild
// overwrites it: under the PMGARD methods that is the first Data call
// after an Advance that ingested a fragment, and under the snapshot
// methods any such Advance. Callers copy what must outlive it and must not
// mutate it. Under the PMGARD methods a rebuild recomposes the field from
// the decoders' values in the reader's one buffer. After the first, a
// rebuild allocates nothing.
func (rd *Reader) Data() ([]float64, error) {
	switch {
	case rd.shape != nil:
		if rd.dirty {
			rd.shape.Recompose(rd.data, func(g, lo int, vals []float64) { rd.decs[g].ValuesAt(vals, lo) })
			rd.zeroMasked(rd.data, 0)
			rd.dirty = false
		}
	case rd.masked != nil:
		if rd.dirty {
			copy(rd.masked, rd.data)
			rd.zeroMasked(rd.masked, 0)
			rd.dirty = false
		}
		return rd.masked, nil
	}
	return rd.data, nil
}
