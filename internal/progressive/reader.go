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

	// budget runs Advance's decode tasks; a budget of one worker selects
	// the plain sequential path. Parallel and sequential decode are
	// bit-identical.
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
	// recompose output, rebuilt in place when dirty.
	data  []float64
	dirty bool

	// PMGARD state. vals is the one per-group buffer every decoder writes
	// its values into on the way to the shell.
	blocks []*bitplane.Block
	decs   []*bitplane.Decoder
	shell  *mgard.Decomposition
	vals   []float64
	grd    *grid.Grid
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
		shell := mgard.NewShell(g, r.Basis)
		if shell.NumGroups() != len(r.Blocks) {
			return nil, fmt.Errorf("%w: %d blocks for %d groups", encoding.ErrCorrupt, len(r.Blocks), shell.NumGroups())
		}
		rd.shell = shell
		rd.decs = make([]*bitplane.Decoder, len(r.Blocks))
		// Each reader gets private copies of the block metadata: ingesting
		// a fragment reattaches its payload to the block, and concurrent
		// readers over one Refactored must not share that mutable state.
		rd.blocks = make([]*bitplane.Block, len(r.Blocks))
		largest := 0
		for i, blk := range r.Blocks {
			if blk.N != shell.GroupSize(i) {
				return nil, fmt.Errorf("%w: block %d has %d coefficients, want %d", encoding.ErrCorrupt, i, blk.N, shell.GroupSize(i))
			}
			cp := *blk
			cp.Planes = make([][]byte, len(blk.Planes))
			copy(cp.Planes, blk.Planes)
			rd.blocks[i] = &cp
			rd.decs[i] = bitplane.NewDecoder(rd.blocks[i])
			largest = max(largest, blk.N)
		}
		rd.vals = make([]float64, largest)
		rd.bound = rd.pmgardBound()
	default:
		return nil, fmt.Errorf("progressive: unknown method %d", r.Method)
	}
	return rd, nil
}

// SetWorkers gives the reader a decode budget of its own of n workers.
// n ≤ 1 selects the sequential path; n > 1 decodes independent fragments
// and bit planes on up to n goroutines with a deterministic merge, so the
// reconstruction stays bit-identical to the sequential path. The default
// is GOMAXPROCS.
func (rd *Reader) SetWorkers(n int) { rd.budget = par.New(max(n, 1)) }

// SetBudget makes Advance run its decode tasks on b, which readers
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

// Advance ingests fragments until the guaranteed bound is ≤ target or the
// representation is exhausted. target must be non-negative. It returns the
// achieved bound. The fragments ingested are exactly those Plan(target)
// reports — Advance consumes the plan, so the selection logic cannot
// diverge between the local and remote (prefetching) paths.
//
// ctx is checked between fragment ingests: on cancellation Advance stops
// early with ctx's error and the bound achieved so far. Fragments already
// ingested stay ingested, so the reader remains valid and a later Advance
// resumes from exactly where this one stopped. A nil ctx means
// context.Background().
func (rd *Reader) Advance(ctx context.Context, target float64) (float64, error) {
	if target < 0 || math.IsNaN(target) {
		return rd.bound, fmt.Errorf("%w: target %g", ErrBadRequest, target)
	}
	plan := rd.Plan(target)
	if rd.trace != nil && len(plan) > 0 {
		m := rd.trace.BeginIter(obs.CatDecode, rd.traceName, rd.traceIter)
		defer m.End()
	}
	var err error
	if rd.Workers() > 1 && len(plan) > 1 {
		switch rd.src.Method {
		case PSZ3Delta:
			err = rd.advanceSnapshotsParallel(ctx, plan)
		case PMGARD, PMGARDHB:
			err = rd.advancePlanesParallel(ctx, plan)
		default:
			err = rd.advanceSequential(ctx, plan)
		}
	} else {
		err = rd.advanceSequential(ctx, plan)
	}
	if err != nil {
		return rd.bound, err
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

// advanceSequential ingests the plan one fragment at a time on the calling
// goroutine — the reference path the parallel paths must match bit for bit.
func (rd *Reader) advanceSequential(ctx context.Context, plan []int) error {
	for _, i := range plan {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		var err error
		switch rd.src.Method {
		case PSZ3, PSZ3Delta:
			err = rd.ingestSnapshot(i)
		default:
			err = rd.ingestPlane(i)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
// cursor. It runs on the reader's goroutine, in plan order, for the
// sequential and parallel paths alike.
func (rd *Reader) account(i int, size int) {
	if rd.fetch != nil {
		rd.fetch(i, int64(size))
	}
	rd.retrieved += int64(size)
	rd.nextFrag = i + 1
}

// decodedFrag is the stage-1 output of the parallel paths: one fragment's
// payload decoded off the hot path, plus everything the deterministic
// commit stage needs to reattach it.
type decodedFrag struct {
	frag int
	err  error

	// PMGARD planes.
	ref      fragRef
	planeSec []byte // compressed plane section (reattached to the block)
	signsSec []byte // compressed signs section (plane 0 only)
	rawPlane []byte // decompressed plane bitmap
	rawSigns []byte // decompressed sign bitmap (plane 0 only)

	// Snapshots.
	vals  []float64
	bound float64
}

// truncateOK cuts tasks to the contiguous prefix that decoded successfully,
// returning the prefix and the error (decode failure or ctx cancellation)
// that ended it, if any. Committing only that prefix keeps the reader's
// state exactly what sequential ingestion of the same fragments produces.
func truncateOK(ctx context.Context, tasks []decodedFrag) ([]decodedFrag, error) {
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

// advancePlanesParallel is the PMGARD worker-pool path: stage 1 decompresses
// every planned fragment concurrently (the deflate-dominated cost), stage 2
// ORs the new bit planes into each group's magnitudes over disjoint
// coefficient ranges, and the final stage commits accounting in plan order.
// Because plane application only sets independent bits, any execution order
// yields magnitudes bit-identical to sequential ingestion.
func (rd *Reader) advancePlanesParallel(ctx context.Context, plan []int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	tasks := make([]decodedFrag, len(plan))
	for t := range tasks {
		tasks[t].frag = -1 // marks "not run" for truncateOK
	}
	rd.budget.For(len(plan), func(_, t int) bool {
		if err := ctx.Err(); err != nil {
			tasks[t] = decodedFrag{frag: plan[t], err: err}
			return false
		}
		tasks[t] = rd.decodePlane(plan[t])
		return tasks[t].err == nil
	})
	ok, ferr := truncateOK(ctx, tasks)

	// Validate plane contiguity BEFORE any decoder mutation: a schedule that
	// skips a plane poisons everything after it, and the sequential path
	// rejects such a fragment without touching the decoder — the parallel
	// path must leave the same state behind.
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
			ok = ok[:i]
			ferr = fmt.Errorf("%w: fragment %d skips to plane %d/%d (have %d)",
				ErrShortFragment, tasks[i].frag, g, p, expected[g])
			break
		}
		if first {
			groups = append(groups, g)
		}
		expected[g] = max(expected[g], p+1)
	}

	// Stage 2: OR the committed planes into each group's decoder over
	// disjoint coefficient chunks; a chunk applies its group's planes in
	// plan order.
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

	// Deterministic commit, in plan order: reattach payloads, account bytes,
	// advance the cursor and bound exactly as the sequential path does.
	for i := range ok {
		p := &ok[i]
		dec := rd.decs[p.ref.Group]
		blk := rd.blocks[p.ref.Group]
		if p.signsSec != nil {
			blk.Signs = p.signsSec
			dec.SetSigns(p.rawSigns)
		}
		blk.Planes[p.ref.Plane] = p.planeSec
		dec.CommitPlanes(p.ref.Plane + 1)
		rd.account(p.frag, len(rd.src.Fragments[p.frag]))
		rd.bound = rd.src.PrefixBounds[p.frag]
		rd.dirty = true
	}
	return ferr
}

// decodePlane does the per-fragment CPU work of ingestPlane without touching
// reader state: bounds checks, section parsing, bitmap decompression.
func (rd *Reader) decodePlane(i int) decodedFrag {
	out := decodedFrag{frag: i}
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
	if ref.Group < 0 || ref.Group >= len(rd.blocks) || ref.Plane < 0 || ref.Plane >= len(rd.blocks[ref.Group].Planes) {
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
		plane, _, err := encoding.GetSection(buf[n:])
		if err != nil {
			out.err = err
			return out
		}
		out.signsSec, out.planeSec = signs, plane
		if out.rawSigns, err = blk.RawBitmap(signs); err != nil {
			out.err = fmt.Errorf("bitplane: signs: %w", err)
			return out
		}
	} else {
		plane, _, err := encoding.GetSection(buf)
		if err != nil {
			out.err = err
			return out
		}
		out.planeSec = plane
	}
	var err2 error
	if out.rawPlane, err2 = blk.RawBitmap(out.planeSec); err2 != nil {
		out.err = fmt.Errorf("bitplane: plane %d: %w", ref.Plane, err2)
	}
	return out
}

// advanceSnapshotsParallel is the PSZ3-Delta pool path: residual snapshots
// decompress concurrently, then accumulate into the reconstruction in plan
// order per element chunk — the additions happen in exactly the sequential
// order for every element, so the float64 sums are bit-identical. The plan
// is processed in bounded windows so at most ~2×workers decoded full-field
// buffers are ever held at once (the sequential path holds one).
func (rd *Reader) advanceSnapshotsParallel(ctx context.Context, plan []int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	window := 2 * rd.Workers()
	if window < 2 {
		window = 2
	}
	for start := 0; start < len(plan); start += window {
		end := start + window
		if end > len(plan) {
			end = len(plan)
		}
		wplan := plan[start:end]
		tasks := make([]decodedFrag, len(wplan))
		for t := range tasks {
			tasks[t].frag = -1
		}
		rd.budget.For(len(wplan), func(_, t int) bool {
			if err := ctx.Err(); err != nil {
				tasks[t] = decodedFrag{frag: wplan[t], err: err}
				return false
			}
			tasks[t] = rd.decodeSnapshot(wplan[t])
			return tasks[t].err == nil
		})
		ok, ferr := truncateOK(ctx, tasks)

		if len(ok) > 0 {
			n := len(rd.data)
			size := (n + rd.Workers() - 1) / rd.Workers()
			if size < 4096 {
				size = 4096
			}
			nchunks := (n + size - 1) / size
			rd.budget.For(nchunks, func(_, c int) bool {
				lo := c * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				for t := range ok {
					vals := ok[t].vals
					for j := lo; j < hi; j++ {
						rd.data[j] += vals[j]
					}
				}
				return true
			})
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

// decodeSnapshot does the per-fragment CPU work of ingestSnapshot for the
// delta method without touching reader state.
func (rd *Reader) decodeSnapshot(i int) decodedFrag {
	out := decodedFrag{frag: i}
	buf, err := rd.fragment(i)
	if err != nil {
		out.err = err
		return out
	}
	if rd.src.HasTail && i == len(rd.src.Fragments)-1 {
		if out.vals, out.err = decodeLossless(buf, rd.grd.Size()); out.err != nil {
			return out
		}
		out.bound = 0
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

// ingestSnapshot fetches and applies snapshot fragment i. PSZ3 snapshots
// replace the reconstruction (re-fetching tighter ones later duplicates
// bytes — PSZ3's inherent redundancy); PSZ3-Delta residuals accumulate.
// Bytes are accounted only once the fragment decodes cleanly.
func (rd *Reader) ingestSnapshot(i int) error {
	buf, err := rd.fragment(i)
	if err != nil {
		return err
	}
	delta := rd.src.Method == PSZ3Delta
	var vals []float64
	bound := 0.0
	if rd.src.HasTail && i == len(rd.src.Fragments)-1 {
		if vals, err = decodeLossless(buf, rd.grd.Size()); err != nil {
			return err
		}
	} else {
		var g *grid.Grid
		vals, g, bound, err = sz.Decompress(buf)
		if err != nil {
			return err
		}
		if !g.Equal(rd.grd) {
			return fmt.Errorf("%w: snapshot grid %v, want %v", encoding.ErrCorrupt, g.Dims(), rd.grd.Dims())
		}
	}
	if delta {
		for j := range rd.data {
			rd.data[j] += vals[j]
		}
	} else {
		copy(rd.data, vals)
	}
	rd.bound = bound
	rd.account(i, len(buf))
	return nil
}

// ingestPlane fetches scheduled plane fragment i and feeds it to its
// group's bit-plane decoder.
func (rd *Reader) ingestPlane(i int) error {
	p := rd.decodePlane(i)
	if p.err != nil {
		return p.err
	}
	dec := rd.decs[p.ref.Group]
	if p.ref.Plane > dec.Applied() {
		return fmt.Errorf("%w: fragment %d skips to plane %d/%d (have %d)",
			ErrShortFragment, i, p.ref.Group, p.ref.Plane, dec.Applied())
	}
	blk := rd.blocks[p.ref.Group]
	// Reattach the fragment payload to the metadata block so the decoder
	// can see it on later replays.
	if p.signsSec != nil {
		blk.Signs = p.signsSec
		dec.SetSigns(p.rawSigns)
	}
	blk.Planes[p.ref.Plane] = p.planeSec
	dec.OrPlane(p.ref.Plane, p.rawPlane, 0, blk.N)
	dec.CommitPlanes(p.ref.Plane + 1)
	rd.account(i, len(rd.src.Fragments[i]))
	rd.bound = rd.src.PrefixBounds[i]
	rd.dirty = true
	return nil
}

func (rd *Reader) pmgardBound() float64 {
	factors := rd.shell.LevelFactors()
	total, slack := 0.0, 0.0
	for i, dec := range rd.decs {
		total += factors[i] * dec.Bound()
		// Same floating-point slack the refactorer bakes into PrefixBounds.
		if s := rd.blocks[i].Bound(0) * math.Ldexp(1, -46); s > slack {
			slack = s
		}
	}
	return total + slack
}

// DataAtResolution reconstructs the current approximation at a reduced
// resolution: level 0 is full resolution, each higher level halves every
// dimension (PMGARD's progression-in-resolution, available alongside the
// precision progression). Only PMGARD-family readers support it. It returns
// the coarse field and its dims.
func (rd *Reader) DataAtResolution(level int) ([]float64, []int, error) {
	switch rd.src.Method {
	case PMGARD, PMGARDHB:
	default:
		return nil, nil, fmt.Errorf("progressive: %v does not support resolution progression", rd.src.Method)
	}
	if err := rd.loadGroups(); err != nil {
		return nil, nil, err
	}
	vals, g, err := rd.shell.ReconstructToLevel(level)
	if err != nil {
		return nil, nil, err
	}
	return vals, g.Dims(), nil
}

// loadGroups sets every group of the shell to its decoder's current
// values, passing each through the reader's group buffer.
func (rd *Reader) loadGroups() error {
	for gi, dec := range rd.decs {
		vals := rd.vals[:rd.blocks[gi].N]
		dec.ValuesInto(vals)
		if err := rd.shell.SetGroup(gi, vals); err != nil {
			return err
		}
	}
	return nil
}

// Data returns the current reconstruction. The returned slice is owned by
// the reader, and the next rebuild overwrites it: under the PMGARD methods
// that is the first Data call after an Advance that ingested a fragment,
// and under the snapshot methods any such Advance. Callers copy what must
// outlive it and must not mutate it. A rebuild allocates nothing.
func (rd *Reader) Data() ([]float64, error) {
	switch rd.src.Method {
	case PSZ3, PSZ3Delta:
		return rd.data, nil
	default:
		if rd.dirty {
			if err := rd.loadGroups(); err != nil {
				return nil, err
			}
			rd.data = rd.shell.ReconstructInto(rd.data)
			rd.dirty = false
		}
		return rd.data, nil
	}
}
