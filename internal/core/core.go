// Package core implements the paper's QoI-preserving progressive retrieval
// framework (§III, §V-A): the general data refactorer (Algorithm 1), the
// QoI-preserved retrieval loop (Algorithm 2), the initial error-bound
// assigner (Algorithm 3), the iterative error-bound reassigner with
// tightening factor c = 1.5 (Algorithm 4), and the mask-based outlier
// management that keeps exact-zero points from blowing up square-root
// estimates.
//
// The loop alternates three modules, exactly as Fig. 1:
//
//	error-bound assigner → progressive retriever → QoI error estimator
//
// The estimator (internal/qoi) needs only the reconstructed values and the
// L∞ bounds achieved by the retriever — never the ground truth — so the
// framework can stop as soon as every user tolerance is certified.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"progqoi/internal/obs"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
	"progqoi/internal/stats"
)

// Variable is one data field with its progressive representation plus the
// metadata recorded at refactor time.
type Variable struct {
	Name  string
	Ref   *progressive.Refactored
	Range float64 // value range of the original field (Algorithm 3 input)
	// ZeroMask marks points whose original value is exactly zero; they are
	// reconstructed exactly (as zero) and carry a zero error bound, which
	// keeps Theorem 2's estimate finite at the paper's Vx=Vy=Vz=0 nodes.
	ZeroMask []bool
}

// MaskBytes returns the storage cost of the zero mask (1 bit per point when
// present).
func (v *Variable) MaskBytes() int64 {
	if v.ZeroMask == nil {
		return 0
	}
	return int64((len(v.ZeroMask) + 7) / 8)
}

// RefactorOptions configures Algorithm 1.
type RefactorOptions struct {
	Progressive progressive.Options
	// MaskZeros enables the outlier mask for points that are exactly zero.
	MaskZeros bool
	// Workers bounds the refactor compute pool (default GOMAXPROCS), the
	// ingest-side mirror of Config.Workers: variables refactor concurrently
	// and the per-bitplane encode stages within each variable share the
	// same budget (Progressive.Workers is derived from it; set it only to
	// override the split). 1 selects the fully sequential path; the
	// refactored output is bit-identical for every setting.
	Workers int
}

// RefactorVariables runs Algorithm 1: refactor every field into progressive
// fragments with metadata. Fields share the grid shape dims.
func RefactorVariables(names []string, fields [][]float64, dims []int, opt RefactorOptions) ([]*Variable, error) {
	if len(names) != len(fields) {
		return nil, fmt.Errorf("core: %d names for %d fields", len(names), len(fields))
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.Progressive.Workers == 0 {
		// Split the one Workers budget between the concurrently refactoring
		// variables so the per-variable encode pools don't multiply into
		// Workers² goroutines — the same split Retriever.advance applies on
		// the decode side. The split changes nothing observable: encode
		// output is schedule-independent.
		share := workers
		if n := len(fields); n > 1 {
			share = (workers + n - 1) / n
		}
		opt.Progressive.Workers = share
	}
	vars := make([]*Variable, len(fields))
	errs := make([]error, len(fields))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range fields {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			data := fields[i]
			var mask []bool
			if opt.MaskZeros {
				any := false
				mask = make([]bool, len(data))
				for j, v := range data {
					if v == 0 {
						mask[j] = true
						any = true
					}
				}
				if !any {
					mask = nil
				}
			}
			ref, err := progressive.Refactor(data, dims, opt.Progressive)
			if err != nil {
				errs[i] = fmt.Errorf("core: refactor %s: %w", names[i], err)
				return
			}
			vars[i] = &Variable{Name: names[i], Ref: ref, Range: stats.Range(data), ZeroMask: mask}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vars, nil
}

// Region is a half-open flat-index range [Lo, Hi) of the data space. The
// zero Region means "the whole domain".
type Region struct{ Lo, Hi int }

func (r Region) whole() bool { return r.Lo == 0 && r.Hi == 0 }

// ErrBadRequest reports an invalid retrieval request (length mismatches,
// non-positive tolerances, malformed regions, unknown variables). Every
// argument-validation failure of Retrieve wraps it, so callers can
// distinguish caller bugs from transport or representation failures with
// errors.Is(err, ErrBadRequest).
var ErrBadRequest = errors.New("core: bad request")

// Request asks for a set of QoIs within absolute error tolerances.
type Request struct {
	QoIs       []qoi.QoI
	Tolerances []float64
	// InitRel optionally seeds Algorithm 3 with per-QoI relative tolerances
	// (the paper's algorithm takes relative bounds); when empty, 0.1 is
	// used and Algorithm 4 tightens from there.
	InitRel []float64
	// Regions optionally restricts each QoI's tolerance to a region of
	// interest (RoI retrieval): QoI k is certified only over Regions[k].
	// The same QoI may appear twice with different regions and tolerances
	// to express spatially varying fidelity. Empty = whole domain for all.
	Regions []Region
	// OnProgress, when set, fires after every certify-loop iteration with
	// the current per-QoI estimated errors and cumulative byte counts. It
	// runs on the retrieving goroutine: a caller that wants to abort cancels
	// the Retrieve context from inside the callback and receives the
	// best-effort Result together with ctx.Err().
	OnProgress func(Iteration)
}

// Iteration is one certify-loop progress report, streamed to
// Request.OnProgress after each iteration of Algorithm 2.
type Iteration struct {
	// N is the 1-based iteration number within this Retrieve call.
	N int
	// EstErrors is the current max estimated error per requested QoI.
	EstErrors []float64
	// RetrievedBytes is the session's cumulative logical fragment bytes.
	RetrievedBytes int64
	// WireBytes is the cumulative bytes the transport actually moved (via
	// Config.WireBytes); zero for local archives.
	WireBytes int64
	// ToleranceMet reports whether every QoI certified this iteration
	// (i.e. this is the final report of a successful Retrieve).
	ToleranceMet bool
}

// Config tunes the retrieval loop.
type Config struct {
	// TightenFactor is Algorithm 4's constant c (default 1.5).
	TightenFactor float64
	// MaxIters caps outer loop iterations (default 500).
	MaxIters int
	// Workers bounds the retrieval compute pool (default GOMAXPROCS): the
	// per-variable fragment-decode pools, the concurrent per-variable
	// advance, and per-QoI error estimation all share this bound. 1 selects
	// the fully sequential path; results are bit-identical either way.
	Workers int
	// DisableMask ignores the variables' zero masks (ablation).
	DisableMask bool
	// Estimator overrides the QoI error estimator (default: the paper's
	// theorem-based qoi.TheoremBound; qoi.IntervalBound is the
	// interval-arithmetic ablation).
	Estimator qoi.BoundFunc
	// Prefetch, when set, is invoked once per retrieval iteration before the
	// readers advance: need[v] lists the fragment indices variable v will
	// ingest this iteration (nil when v needs nothing). A remote retrieval
	// client uses the hook to pull every needed fragment across all
	// variables in a single batched round trip; fragments already present
	// locally may be ignored by the hook. ctx is the Retrieve context: the
	// hook must abandon in-flight work when it is cancelled.
	Prefetch func(ctx context.Context, need [][]int) error
	// WireBytes, when set, reports the cumulative bytes the transport
	// actually moved (a remote client's wire counter). It feeds
	// Iteration.WireBytes; nil means no transport (local archive).
	WireBytes func() int64
	// Trace, when set, records one span per retrieval phase (plan, fetch,
	// decode, commit, estimate) for every iteration, plus an umbrella span
	// per Retrieve call, and stamps the retrieval's request ID into the
	// context so the transport can propagate it as an X-Request-Id header.
	// Nil (the default) keeps the hot path untouched: no context values,
	// no spans, no allocations.
	Trace *obs.Trace
}

func (c Config) withDefaults() Config {
	if c.TightenFactor <= 1 {
		c.TightenFactor = 1.5
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 500
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Estimator == nil {
		c.Estimator = qoi.TheoremBound
	}
	return c
}

// Result reports one retrieval.
type Result struct {
	ToleranceMet bool
	Iterations   int
	// RetrievedBytes is the cumulative fragment bytes fetched across the
	// whole session (including earlier requests on the same Retriever).
	RetrievedBytes int64
	// EstErrors is the final max estimated error per QoI.
	EstErrors []float64
	// VarBounds is the final achieved L∞ bound per variable.
	VarBounds []float64
	// Data is the reconstructed field per variable, with the zero mask
	// applied. Slices are owned by the Retriever and remain valid until the
	// next request.
	Data [][]float64
}

// Retriever drives QoI-preserved progressive retrieval over a set of
// variables. A Retriever is a session: bytes retrieved for one request are
// reused by the next (the incremental recomposition of Fig. 1).
type Retriever struct {
	vars    []*Variable
	readers []*progressive.Reader
	cfg     Config

	eps      []float64 // requested per-variable bounds (assigner state)
	achieved []float64 // bounds achieved by the readers
	masked   [][]float64
}

// ErrExhausted reports that full fidelity was reached without certifying
// the requested tolerances (the Algorithm 2 exit condition).
var ErrExhausted = errors.New("core: representation exhausted before tolerance met")

// NewRetriever opens a retrieval session. fetch (optional) observes every
// fragment fetch for byte accounting or transfer simulation.
func NewRetriever(vars []*Variable, cfg Config, fetch progressive.FetchFunc) (*Retriever, error) {
	rt := &Retriever{vars: vars, cfg: cfg.withDefaults()}
	if fetch != nil && rt.cfg.Workers > 1 && len(vars) > 1 {
		// Variables advance concurrently, but the observer contract predates
		// that: serialize callbacks so observers (netsim.Recorder and
		// friends) never see concurrent calls.
		var mu sync.Mutex
		inner := fetch
		fetch = func(i int, size int64) {
			mu.Lock()
			defer mu.Unlock()
			inner(i, size)
		}
	}
	ne := -1
	for _, v := range vars {
		rd, err := progressive.NewReader(v.Ref, fetch)
		if err != nil {
			return nil, fmt.Errorf("core: open %s: %w", v.Name, err)
		}
		rd.SetWorkers(rt.cfg.Workers)
		rd.SetTrace(rt.cfg.Trace, v.Name)
		rt.readers = append(rt.readers, rd)
		n := v.Ref.NumElements()
		if ne < 0 {
			ne = n
		} else if n != ne {
			return nil, fmt.Errorf("core: variable %s has %d elements, want %d", v.Name, n, ne)
		}
		if v.ZeroMask != nil && len(v.ZeroMask) != n {
			return nil, fmt.Errorf("core: variable %s mask length %d, want %d", v.Name, len(v.ZeroMask), n)
		}
	}
	rt.eps = make([]float64, len(vars))
	rt.achieved = make([]float64, len(vars))
	rt.masked = make([][]float64, len(vars))
	for i := range rt.eps {
		rt.eps[i] = math.Inf(1)
		rt.achieved[i] = math.Inf(1)
	}
	return rt, nil
}

// LazyFetch is the transport of a lazy session. want[v] lists the fragment
// indices of variable v that the iteration's plan needs and the session
// does not hold yet — at least one overall. The transport hands each
// payload it obtains to install and returns its first error; whatever it
// installed before failing stays installed, so the retry asks only for
// the rest. It must abandon in-flight work when ctx is cancelled.
type LazyFetch func(ctx context.Context, want [][]int, install func(v, frag int, payload []byte)) error

// NewLazyRetriever opens a retrieval session over meta-only variables —
// fragment payloads absent, everything else resident — whose payloads
// arrive through fetch, once per retrieval iteration, as the certify loop
// plans them. Each session owns its payload slots; the metadata (blocks,
// bounds, schedules, masks) is immutable and shared with meta, so one
// opened dataset serves any number of concurrent sessions. Any Prefetch
// already set in cfg is replaced.
func NewLazyRetriever(meta []*Variable, cfg Config, observe progressive.FetchFunc, fetch LazyFetch) (*Retriever, error) {
	vars := make([]*Variable, len(meta))
	for i, v := range meta {
		ref := *v.Ref
		ref.Fragments = make([][]byte, len(v.Ref.Fragments))
		cv := *v
		cv.Ref = &ref
		vars[i] = &cv
	}
	install := func(v, frag int, payload []byte) { vars[v].Ref.Fragments[frag] = payload }
	cfg.Prefetch = func(ctx context.Context, need [][]int) error {
		want := make([][]int, len(vars))
		missing := false
		for v, idxs := range need {
			frags := vars[v].Ref.Fragments
			for _, fi := range idxs {
				if fi < 0 || fi >= len(frags) {
					return fmt.Errorf("core: plan wants fragment %s/%d of %d", vars[v].Name, fi, len(frags))
				}
				if len(frags[fi]) == 0 {
					want[v] = append(want[v], fi)
					missing = true
				}
			}
		}
		if !missing {
			return nil
		}
		return fetch(ctx, want, install)
	}
	return NewRetriever(vars, cfg, observe)
}

// RetrievedBytes returns cumulative fragment bytes fetched this session.
func (rt *Retriever) RetrievedBytes() int64 {
	var n int64
	for _, rd := range rt.readers {
		n += rd.RetrievedBytes()
	}
	return n
}

// Retrieve runs Algorithm 2 for the request. Subsequent calls reuse all
// previously retrieved fragments.
//
// ctx scopes the whole retrieval: cancellation or deadline expiry is
// observed between loop iterations, between fragment ingests, and by the
// Prefetch transport hook on in-flight requests. On cancellation Retrieve
// returns the best-effort Result accumulated so far together with an error
// wrapping ctx.Err(); the Retriever stays valid and a follow-up Retrieve
// resumes without re-fetching anything already held. A nil ctx means
// context.Background().
func (rt *Retriever) Retrieve(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(req.QoIs) == 0 {
		return nil, fmt.Errorf("%w: request has no QoIs", ErrBadRequest)
	}
	if len(req.Tolerances) != len(req.QoIs) {
		return nil, fmt.Errorf("%w: %d tolerances for %d QoIs", ErrBadRequest, len(req.Tolerances), len(req.QoIs))
	}
	for k, tol := range req.Tolerances {
		if !(tol > 0) {
			return nil, fmt.Errorf("%w: tolerance %d must be positive, got %g", ErrBadRequest, k, tol)
		}
	}
	neAll := rt.vars[0].Ref.NumElements()
	if len(req.Regions) != 0 {
		if len(req.Regions) != len(req.QoIs) {
			return nil, fmt.Errorf("%w: %d regions for %d QoIs", ErrBadRequest, len(req.Regions), len(req.QoIs))
		}
		for k, r := range req.Regions {
			if r.whole() {
				continue
			}
			if r.Lo < 0 || r.Hi > neAll || r.Lo >= r.Hi {
				return nil, fmt.Errorf("%w: region %d [%d,%d) invalid for %d elements", ErrBadRequest, k, r.Lo, r.Hi, neAll)
			}
		}
	}
	qoiVars := make([][]int, len(req.QoIs))
	involved := map[int]bool{}
	for k, q := range req.QoIs {
		if q.Expr == nil {
			return nil, fmt.Errorf("%w: QoI %d (%s) has no expression", ErrBadRequest, k, q.Name)
		}
		vs := qoi.Vars(q.Expr)
		for _, v := range vs {
			if v < 0 || v >= len(rt.vars) {
				return nil, fmt.Errorf("%w: QoI %s uses variable %d; only %d variables", ErrBadRequest, q.Name, v, len(rt.vars))
			}
			involved[v] = true
		}
		qoiVars[k] = vs
	}

	if tr := rt.cfg.Trace; tr != nil {
		// Stamp the trace and its request ID into the context so the
		// transport below records spans and propagates X-Request-Id.
		ctx = obs.ContextWithRequestID(obs.ContextWithTrace(ctx, tr), tr.ID())
		do := tr.Begin(obs.CatDo, "Retrieve "+tr.ID())
		defer do.End()
	}

	// Algorithm 3: initial error bounds from relative tolerances.
	rt.assignInitial(req, qoiVars)

	res := &Result{
		EstErrors: make([]float64, len(req.QoIs)),
		VarBounds: rt.achieved,
	}
	ne := rt.vars[0].Ref.NumElements()
	if len(rt.vars) > 0 && len(involved) == 0 {
		return nil, fmt.Errorf("%w: no variables involved in request", ErrBadRequest)
	}
	// finish snapshots the session state into res so every exit — certified,
	// exhausted, or cancelled — hands back a coherent best-effort Result.
	finish := func() {
		res.RetrievedBytes = rt.RetrievedBytes()
		res.Data = res.Data[:0]
		for i := range rt.vars {
			res.Data = append(res.Data, rt.masked[i])
		}
	}
	wire := func() int64 {
		if rt.cfg.WireBytes == nil {
			return 0
		}
		return rt.cfg.WireBytes()
	}

	for iter := 0; iter < rt.cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			finish()
			return res, fmt.Errorf("core: retrieve: %w", err)
		}
		res.Iterations = iter + 1
		// Progressive retrieval to the currently assigned bounds.
		progressed, err := rt.advance(ctx, involved, res.Iterations)
		if err != nil {
			if ctx.Err() != nil {
				// The session state is untouched by the aborted step; hand
				// back what earlier iterations certified.
				finish()
				return res, err
			}
			return nil, err
		}

		// QoI error estimation over the full field (Algorithm 2 lines 13–24).
		mEst := rt.cfg.Trace.BeginIter(obs.CatEstimate, "estimate", res.Iterations)
		maxEst, argmax, err := rt.estimateAll(req, qoiVars, ne)
		mEst.End()
		if err != nil {
			return nil, err
		}
		copy(res.EstErrors, maxEst)

		met := true
		for k := range req.QoIs {
			if !(maxEst[k] <= req.Tolerances[k]) {
				met = false
			}
		}
		if req.OnProgress != nil {
			req.OnProgress(Iteration{
				N:              res.Iterations,
				EstErrors:      append([]float64(nil), maxEst...),
				RetrievedBytes: rt.RetrievedBytes(),
				WireBytes:      wire(),
				ToleranceMet:   met,
			})
		}
		if met {
			res.ToleranceMet = true
			break
		}
		exhausted := rt.exhausted(involved)
		if !progressed && exhausted {
			// Full fidelity reached; nothing more to fetch.
			break
		}

		// Algorithm 4: tighten bounds for every unmet QoI at its worst point.
		changed := false
		for k := range req.QoIs {
			if maxEst[k] <= req.Tolerances[k] {
				continue
			}
			if rt.reassign(req, qoiVars, k, argmax[k]) {
				changed = true
			}
		}
		if !changed && exhausted {
			break
		}
	}
	finish()
	if !res.ToleranceMet {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("core: retrieve: %w", err)
		}
		return res, ErrExhausted
	}
	return res, nil
}

// assignInitial implements Algorithm 3 per variable.
func (rt *Retriever) assignInitial(req Request, qoiVars [][]int) {
	for v := range rt.vars {
		rel := 1.0
		used := false
		for k := range req.QoIs {
			for _, vv := range qoiVars[k] {
				if vv != v {
					continue
				}
				used = true
				r := 0.1
				if k < len(req.InitRel) && req.InitRel[k] > 0 {
					r = req.InitRel[k]
				}
				if r < rel {
					rel = r
				}
			}
		}
		if !used {
			continue
		}
		eb := rel * rt.vars[v].Range
		if rt.vars[v].Range == 0 {
			eb = rel
		}
		if eb < rt.eps[v] {
			rt.eps[v] = eb
		}
	}
}

// advance asks every involved reader for its assigned bound and refreshes
// the masked data views. It reports whether any reader fetched new bytes.
// Variables advance concurrently (each with its own decode pool) when
// Workers > 1; per-variable state is independent and results merge by
// index, so the outcome is identical to the sequential order.
func (rt *Retriever) advance(ctx context.Context, involved map[int]bool, iter int) (bool, error) {
	if rt.cfg.Prefetch != nil {
		mPlan := rt.cfg.Trace.BeginIter(obs.CatPlan, "plan", iter)
		need := make([][]int, len(rt.vars))
		any := false
		for v := range rt.vars {
			if !involved[v] {
				continue
			}
			if p := rt.readers[v].Plan(rt.eps[v]); len(p) > 0 {
				need[v] = p
				any = true
			}
		}
		mPlan.End()
		if any {
			// The umbrella prefetch span carries no bytes; the transport
			// records byte-carrying fetch spans underneath it at exactly the
			// points where its wire counter is incremented.
			mFetch := rt.cfg.Trace.BeginIter(obs.CatFetch, "prefetch", iter)
			err := rt.cfg.Prefetch(ctx, need)
			mFetch.End()
			if err != nil {
				return false, fmt.Errorf("core: prefetch: %w", err)
			}
		}
	}
	var todo []int
	for v := range rt.vars {
		if involved[v] {
			todo = append(todo, v)
		}
	}
	if rt.cfg.Trace != nil {
		for _, v := range todo {
			rt.readers[v].SetTraceIter(iter)
		}
	}
	moved := make([]bool, len(todo))
	errs := make([]error, len(todo))
	one := func(i int) {
		v := todo[i]
		before := rt.readers[v].RetrievedBytes()
		b, err := rt.readers[v].Advance(ctx, rt.eps[v])
		if err != nil {
			errs[i] = fmt.Errorf("core: advance %s: %w", rt.vars[v].Name, err)
			return
		}
		if rt.readers[v].RetrievedBytes() != before || b != rt.achieved[v] {
			moved[i] = true
		}
		rt.achieved[v] = b
		// Reconstruction is the commit phase: coefficients accumulated by
		// the decode spans become the field the estimator reads.
		mCom := rt.cfg.Trace.BeginIter(obs.CatCommit, rt.vars[v].Name, iter)
		data, err := rt.readers[v].Data()
		mCom.End()
		if err != nil {
			errs[i] = fmt.Errorf("core: data %s: %w", rt.vars[v].Name, err)
			return
		}
		rt.masked[v] = rt.applyMask(v, data)
	}
	if rt.cfg.Workers > 1 && len(todo) > 1 {
		// Split the one Workers budget between the concurrently advancing
		// variables so the per-reader decode pools don't multiply into
		// Workers² goroutines; the split changes nothing observable because
		// reader output is chunking-independent.
		share := (rt.cfg.Workers + len(todo) - 1) / len(todo)
		for _, v := range todo {
			rt.readers[v].SetWorkers(share)
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, rt.cfg.Workers)
		for i := range todo {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				one(i)
			}(i)
		}
		wg.Wait()
	} else {
		for _, v := range todo {
			rt.readers[v].SetWorkers(rt.cfg.Workers)
		}
		for i := range todo {
			one(i)
		}
	}
	progressed := false
	for i := range todo {
		if errs[i] != nil {
			return false, errs[i]
		}
		if moved[i] {
			progressed = true
		}
	}
	return progressed, nil
}

// applyMask returns the reconstruction with exact-zero points restored. The
// reader's buffer is never mutated (delta methods accumulate into it).
func (rt *Retriever) applyMask(v int, data []float64) []float64 {
	mask := rt.vars[v].ZeroMask
	if mask == nil || rt.cfg.DisableMask {
		return data
	}
	out := append([]float64(nil), data...)
	for i, m := range mask {
		if m {
			out[i] = 0
		}
	}
	return out
}

// pointBounds fills ebs with the per-variable bounds effective at point j
// (zero at masked points).
func (rt *Retriever) pointBounds(j int, ebs []float64) {
	for v := range rt.vars {
		b := rt.achieved[v]
		if math.IsInf(b, 1) {
			// Not retrieved (variable unused by the request).
			b = math.Inf(1)
		}
		if !rt.cfg.DisableMask && rt.vars[v].ZeroMask != nil && rt.vars[v].ZeroMask[j] {
			b = 0
		}
		ebs[v] = b
	}
}

// estimateAll evaluates every QoI bound at every point, returning per-QoI
// max estimates and their argmax locations. Work is sharded as
// (QoI, point-chunk) tasks over one bounded pool, so the Targets of a
// mixed-QoI request estimate concurrently and a region-restricted QoI only
// walks its own region. Partials merge in fixed chunk order per QoI, so
// the result is independent of scheduling.
func (rt *Retriever) estimateAll(req Request, qoiVars [][]int, ne int) ([]float64, []int, error) {
	nq := len(req.QoIs)
	workers := rt.cfg.Workers
	if workers > ne {
		workers = ne
	}
	if workers < 1 {
		workers = 1
	}
	// Per-QoI regions of interest: certification is restricted to [rlo, rhi).
	rlo := make([]int, nq)
	rhi := make([]int, nq)
	for k := range req.QoIs {
		rlo[k], rhi[k] = 0, ne
		if len(req.Regions) > 0 && !req.Regions[k].whole() {
			rlo[k], rhi[k] = req.Regions[k].Lo, req.Regions[k].Hi
		}
	}
	// Fixed chunk grid over the point space, deliberately independent of the
	// worker count: the tasks and their merge order are then identical for
	// every Workers setting, so argmax tie-breaks (and the byte-fetch
	// sequence that hangs off them via reassign) cannot vary with
	// parallelism. Each chunk evaluates every QoI whose region covers it,
	// sharing one pointBounds/vals gather per point across the QoIs.
	const size = 4096
	nchunks := (ne + size - 1) / size
	type partial struct {
		max    []float64
		argmax []int
	}
	parts := make([]partial, nchunks)
	run := func(c int) {
		lo, hi := c*size, (c+1)*size
		if hi > ne {
			hi = ne
		}
		p := partial{max: make([]float64, nq), argmax: make([]int, nq)}
		for k := range p.argmax {
			p.argmax[k] = rlo[k]
		}
		active := make([]int, 0, nq)
		for k := 0; k < nq; k++ {
			if rlo[k] < hi && rhi[k] > lo {
				active = append(active, k)
			}
		}
		parts[c] = p
		if len(active) == 0 {
			return
		}
		vals := make([]float64, len(rt.vars))
		ebs := make([]float64, len(rt.vars))
		for j := lo; j < hi; j++ {
			rt.pointBounds(j, ebs)
			for v := range rt.vars {
				if rt.masked[v] != nil {
					vals[v] = rt.masked[v][j]
				}
			}
			for _, k := range active {
				if j < rlo[k] || j >= rhi[k] {
					continue
				}
				_, b := rt.cfg.Estimator(req.QoIs[k].Expr, vals, ebs)
				if b > p.max[k] || math.IsNaN(b) {
					if math.IsNaN(b) {
						b = math.Inf(1)
					}
					p.max[k] = b
					p.argmax[k] = j
				}
			}
		}
		parts[c] = p
	}
	if workers > 1 && nchunks > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		nw := workers
		if nw > nchunks {
			nw = nchunks
		}
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c := int(next.Add(1)) - 1
					if c >= nchunks {
						return
					}
					run(c)
				}
			}()
		}
		wg.Wait()
	} else {
		for c := 0; c < nchunks; c++ {
			run(c)
		}
	}
	max := make([]float64, nq)
	argmax := make([]int, nq)
	for k := 0; k < nq; k++ {
		argmax[k] = rlo[k]
		for c := 0; c < nchunks; c++ {
			if parts[c].max[k] >= max[k] {
				max[k] = parts[c].max[k]
				argmax[k] = parts[c].argmax[k]
			}
		}
		// Guard the estimate against the few ulp the estimator itself
		// spends: report a hair above the raw bound so downstream
		// comparisons of actual ≤ estimated are airtight.
		max[k] *= 1 + 1e-12
	}
	return max, argmax, nil
}

// reassign implements Algorithm 4 for QoI k: tighten the bounds of the
// involved variables by factor c until the estimate at the worst point
// drops below tolerance. Returns whether any bound changed.
func (rt *Retriever) reassign(req Request, qoiVars [][]int, k, worst int) bool {
	c := rt.cfg.TightenFactor
	tol := req.Tolerances[k]
	vals := make([]float64, len(rt.vars))
	ebs := make([]float64, len(rt.vars))
	for v := range rt.vars {
		if rt.masked[v] != nil {
			vals[v] = rt.masked[v][worst]
		}
	}
	// Candidate bounds start from the currently achieved bounds. The
	// tightening per outer round is capped: the estimate is evaluated at
	// the *current* reconstruction, and a point whose reconstructed value
	// sits at a theorem singularity (e.g. a sqrt radicand reconstructed to
	// exactly zero) reports +Inf for any candidate ε, which would otherwise
	// crash the bound to bit-exact in a single round. Capping lets the next
	// round re-estimate against refreshed values. 20 steps of c=1.5 are a
	// ~3300× reduction per round, so legitimate deep tightening still
	// converges in a handful of rounds.
	cand := append([]float64(nil), rt.achieved...)
	changed := false
	for step := 0; step < 20; step++ {
		rt.pointBounds(worst, ebs)
		for _, v := range qoiVars[k] {
			if !math.IsInf(cand[v], 1) {
				ebs[v] = cand[v]
			} else {
				ebs[v] = rt.vars[v].Range
				if ebs[v] == 0 {
					ebs[v] = 1
				}
			}
			if !rt.cfg.DisableMask && rt.vars[v].ZeroMask != nil && rt.vars[v].ZeroMask[worst] {
				ebs[v] = 0
			}
		}
		_, b := rt.cfg.Estimator(req.QoIs[k].Expr, vals, ebs)
		if b <= tol && !math.IsNaN(b) {
			break
		}
		for _, v := range qoiVars[k] {
			if math.IsInf(cand[v], 1) {
				cand[v] = rt.vars[v].Range
				if cand[v] == 0 {
					cand[v] = 1
				}
			}
			cand[v] /= c
			if cand[v] < 1e-300 {
				cand[v] = 0 // demand bit-exact data
			}
		}
	}
	for _, v := range qoiVars[k] {
		if cand[v] < rt.eps[v] {
			rt.eps[v] = cand[v]
			changed = true
		}
	}
	return changed
}

// exhausted reports whether all involved readers have fetched everything.
func (rt *Retriever) exhausted(involved map[int]bool) bool {
	for v := range rt.vars {
		if !involved[v] {
			continue
		}
		if !rt.readers[v].Exhausted() {
			return false
		}
	}
	return true
}

// ActualQoIErrors computes the ground-truth max |q(orig) − q(recon)| per
// QoI — the evaluation-side metric (never used by the retrieval loop).
// recon entries may be nil for variables no evaluated QoI references (the
// Retriever leaves unrequested variables unretrieved); they read as zero.
func ActualQoIErrors(qois []qoi.QoI, orig, recon [][]float64) []float64 {
	if len(orig) == 0 {
		return nil
	}
	ne := len(orig[0])
	out := make([]float64, len(qois))
	ov := make([]float64, len(orig))
	rv := make([]float64, len(orig))
	for j := 0; j < ne; j++ {
		for v := range orig {
			ov[v] = orig[v][j]
			if recon[v] != nil {
				rv[v] = recon[v][j]
			} else {
				rv[v] = 0
			}
		}
		for k, q := range qois {
			a := q.Expr.Eval(ov)
			b := q.Expr.Eval(rv)
			d := math.Abs(a - b)
			if math.IsNaN(d) {
				d = math.Inf(1)
			}
			if d > out[k] {
				out[k] = d
			}
		}
	}
	return out
}

// QoIRanges computes per-QoI value ranges on the original data, used by the
// evaluation to convert absolute errors to the paper's relative metric.
func QoIRanges(qois []qoi.QoI, orig [][]float64) []float64 {
	if len(orig) == 0 {
		return nil
	}
	ne := len(orig[0])
	lo := make([]float64, len(qois))
	hi := make([]float64, len(qois))
	for k := range qois {
		lo[k] = math.Inf(1)
		hi[k] = math.Inf(-1)
	}
	vals := make([]float64, len(orig))
	for j := 0; j < ne; j++ {
		for v := range orig {
			vals[v] = orig[v][j]
		}
		for k, q := range qois {
			x := q.Expr.Eval(vals)
			if math.IsNaN(x) {
				continue
			}
			if x < lo[k] {
				lo[k] = x
			}
			if x > hi[k] {
				hi[k] = x
			}
		}
	}
	out := make([]float64, len(qois))
	for k := range qois {
		out[k] = hi[k] - lo[k]
	}
	return out
}
