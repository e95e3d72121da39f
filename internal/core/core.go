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
//
// One step departs from the paper's loop, without changing what it
// returns. On a session that already holds a reconstruction, the paper's
// first iteration of a request fetches to Algorithm 3's seed only to fail
// there and let Algorithm 4 tighten. Retrieve instead aims first: it
// estimates on the held data at the bounds the seed would reach and runs
// Algorithm 4 before anything is fetched, so a warm request usually
// certifies in one fetch round instead of two. On every ladder the tests
// run, bytes, certified estimates and data match the paper's loop bit for
// bit; only Result.Iterations drops.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"progqoi/internal/obs"
	"progqoi/internal/par"
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

// RefactorOptions configures Algorithm 1.
type RefactorOptions struct {
	Progressive progressive.Options
	// MaskZeros enables the outlier mask for points that are exactly zero.
	MaskZeros bool
	// Workers bounds the refactor compute (default GOMAXPROCS), the
	// ingest-side mirror of Config.Workers: variables refactor concurrently
	// and the encode tasks within each variable run on the same budget;
	// Progressive.Workers is ignored. 1 selects the fully sequential path;
	// the refactored output is bit-identical for every setting.
	Workers int
}

// RefactorVariables runs Algorithm 1: refactor every field into progressive
// fragments with metadata. Fields share the grid shape dims.
func RefactorVariables(names []string, fields [][]float64, dims []int, opt RefactorOptions) ([]*Variable, error) {
	if len(names) != len(fields) {
		return nil, fmt.Errorf("core: %d names for %d fields", len(names), len(fields))
	}
	b := par.New(opt.Workers)
	vars := make([]*Variable, len(fields))
	errs := make([]error, len(fields))
	b.For(len(fields), func(_, i int) bool {
		data := fields[i]
		var mask []bool
		if opt.MaskZeros {
			mask = zeroMask(data)
		}
		ref, err := progressive.RefactorOn(b, data, dims, opt.Progressive)
		if err != nil {
			errs[i] = fmt.Errorf("core: refactor %s: %w", names[i], err)
			return true
		}
		vars[i] = &Variable{Name: names[i], Ref: ref, Range: stats.Range(data), ZeroMask: mask}
		return true
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vars, nil
}

// zeroMask marks the exact zeros of data, or returns nil when it has none;
// the mask is allocated at the first zero, so a field without any costs
// nothing.
func zeroMask(data []float64) []bool {
	var mask []bool
	for j, v := range data {
		if v == 0 {
			if mask == nil {
				mask = make([]bool, len(data))
			}
			mask[j] = true
		}
	}
	return mask
}

// Region is a half-open flat-index range [Lo, Hi) of the data space. The
// zero Region means "the whole domain".
type Region struct{ Lo, Hi int }

func (r Region) whole() bool { return r.Lo == 0 && r.Hi == 0 }

// ErrBadRequest reports an invalid retrieval request (no targets,
// non-positive tolerances, relative targets without a range, malformed
// regions, QoIs that do not compile or read unknown variables). Every
// argument-validation failure of Retrieve wraps it, so callers can
// distinguish caller bugs from transport or representation failures with
// errors.Is(err, ErrBadRequest).
var ErrBadRequest = errors.New("core: bad request")

// Target is one quantity of interest with its own error requirement: an
// absolute tolerance, or a tolerance relative to the QoI's value range,
// certified over the whole domain or just a Region. A Request mixes
// targets freely — the same QoI may appear twice with different regions
// and tolerances to express spatially varying fidelity.
type Target struct {
	// QoI is the derivable quantity to certify.
	QoI qoi.QoI
	// Tolerance is the requested max error: absolute by default, or a
	// fraction of Range when Relative is set. Must be positive.
	Tolerance float64
	// Relative interprets Tolerance as Tolerance × Range (the paper's
	// evaluation convention) and seeds Algorithm 3 with the relative
	// value; an absolute target seeds it with 0.1 and Algorithm 4 tightens
	// from there.
	Relative bool
	// Range is the QoI's value range (see QoIRanges); required when
	// Relative is set, ignored otherwise.
	Range float64
	// Region restricts certification to a flat-index range; the zero
	// Region means the whole domain.
	Region Region
}

// Request asks one Retrieve call to certify a set of Targets.
type Request struct {
	Targets []Target
	// OnProgress, when set, fires after every certify-loop iteration with
	// the current per-QoI estimated errors and cumulative byte counts — render
	// convergence, or cancel the Retrieve context from inside the callback to
	// stop early and receive the best-effort Result together with ctx.Err().
	// A warm request's aim pass fetches nothing and reports nothing, so a
	// warm request that certifies in one round reports once. It runs on the
	// retrieving goroutine.
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
	// WireBytes is the cumulative bytes the transport actually moved (the
	// wire counter a lazy session was opened with); zero for local
	// archives.
	WireBytes int64
	// ToleranceMet reports whether every QoI certified this iteration
	// (i.e. this is the final report of a successful Retrieve).
	ToleranceMet bool
}

// Config tunes the retrieval loop.
type Config struct {
	// TightenFactor is Algorithm 4's constant c (default 1.5).
	TightenFactor float64
	// Workers bounds the retrieval compute (default GOMAXPROCS): the
	// concurrent per-variable advance, each variable's fragment decode, and
	// the error estimation all run on one budget of this many workers. 1
	// selects the fully sequential path; results are bit-identical either
	// way.
	Workers int
	// Trace, when set, records one span per retrieval phase (plan, fetch,
	// decode, commit, estimate) for every iteration, plus an umbrella span
	// per Retrieve call, and stamps the retrieval's request ID into the
	// context so the transport can propagate it as an X-Request-Id header.
	// The aim pass of a warm request is an estimate span of iteration 1
	// named "aim". Nil (the default) keeps the hot path untouched: no
	// context values, no spans, no allocations.
	Trace *obs.Trace

	// paperLoop runs Algorithm 2 as the paper states it, without the aim
	// pass: every request's first iteration fetches to Algorithm 3's seed.
	// It stays as the reference the tests hold the default loop to.
	paperLoop bool
	// onEstimate, when set, sees the todo of every estimateAll pass: the
	// targets it evaluates over their whole region. The memo tests count
	// through it.
	onEstimate func(todo []bool)
}

// maxIters caps the certify loop's iterations per request.
const maxIters = 500

// Result reports one retrieval.
type Result struct {
	ToleranceMet bool
	// Iterations counts the certify loop's fetch rounds, each followed by
	// one estimate. A session's first request spends its first round on
	// Algorithm 3's seed and usually needs a second; a later request
	// usually certifies in one, because the aim pass runs Algorithm 4 on
	// the held data before the first fetch.
	Iterations int
	// RetrievedBytes is the cumulative fragment bytes fetched across the
	// whole session (including earlier requests on the same Retriever).
	RetrievedBytes int64
	// EstErrors is the final max estimated error per QoI.
	EstErrors []float64
	// VarBounds is the final achieved L∞ bound per variable. Like Data, it
	// is owned by the Retriever and overwritten by the next request.
	VarBounds []float64
	// Data is the reconstructed field per variable, with the zero mask
	// applied. Slices are owned by the Retriever: they remain valid until
	// the next request, which overwrites them. Copy what must outlive it.
	Data [][]float64
}

// Retriever drives QoI-preserved progressive retrieval over a set of
// variables. A Retriever is a session: bytes retrieved for one request are
// reused by the next (the incremental recomposition of Fig. 1).
type Retriever struct {
	vars    []*Variable
	readers []*progressive.Reader
	cfg     Config
	budget  *par.Budget // Config.Workers, shared by every reader
	ne      int         // points per variable

	// prefetch and wire are the transport of a lazy session, nil for a
	// local one. prefetch runs once per iteration before the readers
	// advance: need[v] lists the fragment indices variable v will ingest
	// (nil when v needs nothing), and it pulls those not yet held. wire
	// reads the transport's byte counter for Iteration.WireBytes.
	prefetch func(ctx context.Context, need [][]int) error
	wire     func() int64

	plan     *planner  // the requested bounds and the rules that set them
	achieved []float64 // bounds achieved by the readers; only advance writes them
	// data[v] is reader v's masked reconstruction as its last refresh
	// returned it, nil before the first: a view, not a copy.
	data [][]float64
	est  []*estScratch // one per estimateAll worker slot

	// The estimate memo. gen[v] counts the refreshes of variable v that
	// changed it: advance bumps it when its reader ingests a fragment or
	// reports a new bound, the only ways data[v] and achieved[v] move. An
	// Advance cut short by cancellation leaves its reader short of its
	// target, so the next one ingests and bumps. memo holds the last
	// estimate of each target of the current request.
	gen  []uint64
	memo map[memoKey]estMemo
}

// memoKey names a target independently of the request that carries it: its
// expression's structure (qoi.Program.Keys) and its region.
type memoKey struct {
	expr   string
	region Region
}

// estMemo is a target's last estimate. stamp is the sum of its variables'
// generations when it was made: generations only grow, so the sum is
// unchanged exactly when none of those variables has moved since.
type estMemo struct {
	stamp uint64
	est   float64
	arg   int
}

// ErrExhausted reports that full fidelity was reached without certifying
// the requested tolerances (the Algorithm 2 exit condition).
var ErrExhausted = errors.New("core: representation exhausted before tolerance met")

// NewRetriever opens a retrieval session. fetch (optional) observes every
// fragment fetch for byte accounting or transfer simulation.
func NewRetriever(vars []*Variable, cfg Config, fetch progressive.FetchFunc) (*Retriever, error) {
	rt := &Retriever{vars: vars, cfg: cfg, budget: par.New(cfg.Workers)}
	if fetch != nil && rt.budget.Workers() > 1 && len(vars) > 1 {
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
	ranges := make([]float64, len(vars))
	for i, v := range vars {
		rd, err := progressive.NewReader(v.Ref, fetch)
		if err != nil {
			return nil, fmt.Errorf("core: open %s: %w", v.Name, err)
		}
		rd.SetBudget(rt.budget)
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
		if err := rd.SetMask(v.ZeroMask); err != nil {
			return nil, fmt.Errorf("core: open %s: %w", v.Name, err)
		}
		ranges[i] = v.Range
	}
	rt.ne = max(ne, 0)
	rt.plan = newPlanner(ranges, cfg.TightenFactor)
	rt.achieved = make([]float64, len(vars))
	rt.data = make([][]float64, len(vars))
	rt.gen = make([]uint64, len(vars))
	for i := range rt.achieved {
		rt.achieved[i] = math.Inf(1)
	}
	return rt, nil
}

// LazyFetch is the transport of a lazy session. want[v] lists the fragment
// indices of variable v that the iteration's plan needs and the session
// does not hold yet — at least one overall. b is the session's budget
// (Config.Workers): a transport that issues requests concurrently runs
// them as tasks on it, so the wire fan-out never exceeds the compute
// fan-out. The transport hands each payload it obtains to install and
// returns its first error; whatever it installed before failing stays
// installed, so the retry asks only for the rest. It must abandon
// in-flight work when ctx is cancelled.
type LazyFetch func(ctx context.Context, b *par.Budget, want [][]int, install func(v, frag int, payload []byte)) error

// NewLazyRetriever opens a retrieval session over meta-only variables —
// fragment payloads absent, everything else resident — whose payloads
// arrive through fetch, once per retrieval iteration, as the certify loop
// plans them. Each session owns its payload slots; the metadata (blocks,
// bounds, schedules, masks) is immutable and shared with meta, so one
// opened dataset serves any number of concurrent sessions. wire (optional)
// reports the cumulative bytes the transport moved; it feeds
// Iteration.WireBytes.
func NewLazyRetriever(meta []*Variable, cfg Config, observe progressive.FetchFunc, fetch LazyFetch, wire func() int64) (*Retriever, error) {
	vars := make([]*Variable, len(meta))
	for i, v := range meta {
		ref := *v.Ref
		ref.Fragments = make([][]byte, len(v.Ref.Fragments))
		cv := *v
		cv.Ref = &ref
		vars[i] = &cv
	}
	rt, err := NewRetriever(vars, cfg, observe)
	if err != nil {
		return nil, err
	}
	install := func(v, frag int, payload []byte) { vars[v].Ref.Fragments[frag] = payload }
	rt.prefetch = func(ctx context.Context, need [][]int) error {
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
		return fetch(ctx, rt.budget, want, install)
	}
	rt.wire = wire
	return rt, nil
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
// observed between loop iterations, between fragment ingests, and by a
// lazy session's transport on in-flight requests. On cancellation Retrieve
// returns the best-effort Result accumulated so far together with an error
// wrapping ctx.Err(); the Retriever stays valid and a follow-up Retrieve
// resumes without re-fetching anything already held. A nil ctx means
// context.Background().
func (rt *Retriever) Retrieve(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q, err := rt.newRequest(req)
	if err != nil {
		return nil, err
	}
	// Carry over the memo entries this request's targets can use, and only
	// those, so the memo never outgrows one request.
	memo := make(map[memoKey]estMemo, len(q.keys))
	for _, key := range q.keys {
		if e, ok := rt.memo[key]; ok {
			memo[key] = e
		}
	}
	rt.memo = memo

	if tr := rt.cfg.Trace; tr != nil {
		// Stamp the trace and its request ID into the context so the
		// transport below records spans and propagates X-Request-Id.
		ctx = obs.ContextWithRequestID(obs.ContextWithTrace(ctx, tr), tr.ID())
		do := tr.Begin(obs.CatDo, "Retrieve "+tr.ID())
		defer do.End()
	}

	// Algorithm 3: initial error bounds from relative tolerances.
	rt.plan.seed(q.reads, q.seed)
	if !rt.cfg.paperLoop {
		rt.aim(q)
	}

	res := &Result{
		EstErrors: make([]float64, len(q.Targets)),
		VarBounds: rt.achieved,
	}
	// finish snapshots the session state into res so every exit — certified,
	// exhausted, or cancelled — hands back a coherent best-effort Result.
	finish := func() {
		res.RetrievedBytes = rt.RetrievedBytes()
		res.Data = append(res.Data[:0], rt.data...)
	}
	wire := func() int64 {
		if rt.wire == nil {
			return 0
		}
		return rt.wire()
	}

	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			finish()
			return res, fmt.Errorf("core: retrieve: %w", err)
		}
		res.Iterations = iter + 1
		// Progressive retrieval to the currently assigned bounds.
		progressed, err := rt.advance(ctx, q, res.Iterations)
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
		maxEst, argmax := rt.estimate(q, rt.achieved)
		mEst.End()
		copy(res.EstErrors, maxEst)

		met := true
		for k := range q.Targets {
			if !(maxEst[k] <= q.tol[k]) {
				met = false
			}
		}
		if q.OnProgress != nil {
			q.OnProgress(Iteration{
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
		exhausted := true
		for _, v := range q.vars {
			exhausted = exhausted && rt.readers[v].Exhausted()
		}
		if !progressed && exhausted {
			// Full fidelity reached; nothing more to fetch.
			break
		}

		// Algorithm 4: tighten bounds for every unmet QoI at its worst point.
		changed := false
		for k := range q.Targets {
			if maxEst[k] <= q.tol[k] {
				continue
			}
			if rt.reassign(q, rt.achieved, k, argmax[k]) {
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

// request is one Retrieve call, validated and compiled once. Every step of
// the certify loop reads it; none changes it.
type request struct {
	Request
	tol    []float64    // each target's absolute tolerance
	seed   []float64    // each target's relative tolerance for Algorithm 3
	prog   *qoi.Program // the targets' compiled estimator
	reads  [][]int      // reads[k] lists the variables target k reads, sorted
	vars   []int        // the variables any target reads, sorted
	keys   []memoKey    // each target's memo key
	lo, hi []int        // each target's region of interest [lo, hi)
}

// newRequest validates req against the session and compiles it. It is the
// one validation of a request, and every refusal wraps ErrBadRequest. It
// leaves the session untouched, so a refused request changes nothing.
func (rt *Retriever) newRequest(req Request) (*request, error) {
	nq := len(req.Targets)
	if nq == 0 {
		return nil, fmt.Errorf("%w: request has no targets", ErrBadRequest)
	}
	q := &request{Request: req, tol: make([]float64, nq), seed: make([]float64, nq),
		reads: make([][]int, nq), keys: make([]memoKey, nq), lo: make([]int, nq), hi: make([]int, nq)}
	exprs := make([]qoi.Expr, nq)
	for k, t := range req.Targets {
		if !(t.Tolerance > 0) {
			return nil, fmt.Errorf("%w: target %d (%s): tolerance must be positive, got %g",
				ErrBadRequest, k, t.QoI.Name, t.Tolerance)
		}
		q.tol[k], q.seed[k] = t.Tolerance, 0.1
		if t.Relative {
			if !(t.Range > 0) {
				return nil, fmt.Errorf("%w: target %d (%s): relative tolerance needs a positive Range, got %g",
					ErrBadRequest, k, t.QoI.Name, t.Range)
			}
			q.tol[k], q.seed[k] = t.Tolerance*t.Range, t.Tolerance
			if !(q.tol[k] > 0) {
				return nil, fmt.Errorf("%w: target %d (%s): tolerance %g × range %g is not positive",
					ErrBadRequest, k, t.QoI.Name, t.Tolerance, t.Range)
			}
		}
		exprs[k] = t.QoI.Expr
	}
	// The paper's per-operator theorems, compiled once per request into a
	// program that shares common subexpressions across the targets. Compile
	// refuses a nil node at any depth, so Vars below walks whole trees.
	prog, err := qoi.Compile(exprs)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	q.prog = prog
	read := make([]bool, len(rt.vars))
	for k, key := range prog.Keys() {
		t := req.Targets[k]
		vs := qoi.Vars(exprs[k])
		for _, v := range vs {
			if v < 0 || v >= len(rt.vars) {
				return nil, fmt.Errorf("%w: QoI %s uses variable %d; only %d variables", ErrBadRequest, t.QoI.Name, v, len(rt.vars))
			}
			read[v] = true
		}
		q.reads[k] = vs
		q.keys[k] = memoKey{expr: key, region: t.Region}
		q.lo[k], q.hi[k] = 0, rt.ne
		if r := t.Region; !r.whole() {
			if r.Lo < 0 || r.Hi > rt.ne || r.Lo >= r.Hi {
				return nil, fmt.Errorf("%w: region %d [%d,%d) invalid for %d elements", ErrBadRequest, k, r.Lo, r.Hi, rt.ne)
			}
			q.lo[k], q.hi[k] = r.Lo, r.Hi
		}
	}
	for v, on := range read {
		if on {
			q.vars = append(q.vars, v)
		}
	}
	if len(q.vars) == 0 {
		return nil, fmt.Errorf("%w: no variables involved in request", ErrBadRequest)
	}
	return q, nil
}

// advance asks the reader of every variable q reads for its requested
// bound and refreshes the data views. It reports whether any reader
// fetched new bytes. Variables advance as tasks on the session's budget,
// which their decode tasks share; per-variable state is independent and
// results merge by index, so the outcome is identical to the sequential
// order.
func (rt *Retriever) advance(ctx context.Context, q *request, iter int) (bool, error) {
	eps := rt.plan.eps
	if rt.prefetch != nil {
		mPlan := rt.cfg.Trace.BeginIter(obs.CatPlan, "plan", iter)
		need := make([][]int, len(rt.vars))
		any := false
		for _, v := range q.vars {
			if p := rt.readers[v].Plan(eps[v]); len(p) > 0 {
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
			err := rt.prefetch(ctx, need)
			mFetch.End()
			if err != nil {
				return false, fmt.Errorf("core: prefetch: %w", err)
			}
		}
	}
	if rt.cfg.Trace != nil {
		for _, v := range q.vars {
			rt.readers[v].SetTraceIter(iter)
		}
	}
	moved := make([]bool, len(q.vars))
	errs := make([]error, len(q.vars))
	rt.budget.For(len(q.vars), func(_, i int) bool {
		v := q.vars[i]
		rd := rt.readers[v]
		before := rd.RetrievedBytes()
		b, err := rd.Advance(ctx, eps[v])
		if err != nil {
			errs[i] = fmt.Errorf("core: advance %s: %w", rt.vars[v].Name, err)
			return true
		}
		// Reconstruction is the commit phase: coefficients accumulated by
		// the decode spans become the field the estimator reads.
		mCom := rt.cfg.Trace.BeginIter(obs.CatCommit, rt.vars[v].Name, iter)
		data, err := rd.Data()
		mCom.End()
		if err != nil {
			errs[i] = fmt.Errorf("core: data %s: %w", rt.vars[v].Name, err)
			return true
		}
		rt.data[v] = data
		if rd.RetrievedBytes() != before || b != rt.achieved[v] {
			moved[i] = true
			rt.gen[v]++
		}
		rt.achieved[v] = b
		return true
	})
	progressed := false
	for i := range q.vars {
		if errs[i] != nil {
			return false, errs[i]
		}
		if moved[i] {
			progressed = true
		}
	}
	return progressed, nil
}

// estScratch is the working memory of one estimateAll worker slot. It lives
// on the Retriever, so iterations and requests reuse it.
type estScratch struct {
	prog  qoi.Scratch
	x, eb [][]float64 // per variable: the block's values (a view) and bounds
	// loaded says that load has run since scratch last handed s out, last
	// for the block [lo, hi): each bound column then holds its variable's
	// bound everywhere but at that block's masked points.
	loaded bool
	lo, hi int
	active []bool // per target: its region meets the block
}

// scratch returns the first n estimate scratches, made on first use and
// sized for nq targets. Each is handed out for one estimateAll pass or one
// reassign, with its bound columns to be filled afresh: reassign writes
// them, and a pass has bounds of its own.
func (rt *Retriever) scratch(n, nq int) []*estScratch {
	for len(rt.est) < n {
		s := &estScratch{x: make([][]float64, len(rt.vars)), eb: make([][]float64, len(rt.vars))}
		for v := range s.eb {
			s.eb[v] = make([]float64, qoi.BlockSize)
		}
		rt.est = append(rt.est, s)
	}
	for _, s := range rt.est[:n] {
		s.loaded = false
		if cap(s.active) < nq {
			s.active = make([]bool, nq)
		}
		s.active = s.active[:nq]
	}
	return rt.est[:n]
}

// load points the block [blo, bhi) of each variable in vs into s: its
// reconstructed values in place, and its bounds, which are bounds[v]
// everywhere except at masked points, where they are zero. vs and bounds
// are the same for every load of one pass, so only its first load fills
// the bound columns; a later one puts bounds[v] back at the masked points
// of the block before and zeroes those of its own.
func (s *estScratch) load(rt *Retriever, vs []int, bounds []float64, blo, bhi int) {
	for _, v := range vs {
		s.x[v] = rt.data[v][blo:bhi]
		eb, b, mask := s.eb[v], bounds[v], rt.vars[v].ZeroMask
		switch {
		case !s.loaded:
			for i := range eb {
				eb[i] = b
			}
		case mask != nil:
			for i, z := range mask[s.lo:s.hi] {
				if z {
					eb[i] = b
				}
			}
		}
		if mask != nil {
			for i, z := range mask[blo:bhi] {
				if z {
					eb[i] = 0
				}
			}
		}
	}
	s.loaded, s.lo, s.hi = true, blo, bhi
}

// estimate returns every target's max estimate and argmax on the held data
// at the variables' bounds: the achieved ones, except in the aim pass. The
// estimate is a pure function of the target's expression, its region, and
// its variables' masked data and bounds. So a target whose variables all
// sit at their achieved bounds and none of which has moved since its
// memoized estimate keeps it, without a pass over the field, and a fresh
// estimate of such a target is memoized. The rest go through estimateAll.
// The first estimate of a request on a session that has certified before
// reuses every target whose variables Algorithm 3 did not tighten.
func (rt *Retriever) estimate(q *request, bounds []float64) ([]float64, []int) {
	nq := len(q.Targets)
	est, arg := make([]float64, nq), make([]int, nq)
	stamps := make([]uint64, nq)
	held := make([]bool, nq) // the target's variables sit at their achieved bounds
	todo := make([]bool, nq)
	miss := false
	for k, vs := range q.reads {
		held[k] = true
		for _, v := range vs {
			stamps[k] += rt.gen[v]
			held[k] = held[k] && bounds[v] == rt.achieved[v]
		}
		if e, ok := rt.memo[q.keys[k]]; ok && e.stamp == stamps[k] && held[k] {
			est[k], arg[k] = e.est, e.arg
			continue
		}
		todo[k], miss = true, true
	}
	if !miss {
		return est, arg
	}
	fresh, freshArg := rt.estimateAll(q, bounds, todo)
	for k, on := range todo {
		if !on {
			continue
		}
		est[k], arg[k] = fresh[k], freshArg[k]
		if held[k] {
			rt.memo[q.keys[k]] = estMemo{stamp: stamps[k], est: est[k], arg: arg[k]}
		}
	}
	return est, arg
}

// estimateAll evaluates the QoI bounds of every target k with todo[k] at
// every point of its region, at the variables' bounds, returning per-QoI
// max estimates and their argmax locations; the other targets' entries are
// zero. It loads only the variables those targets read. Work is sharded as
// point-chunk tasks on the session's budget. Partials merge in fixed chunk
// order per QoI, so the result is independent of scheduling, and a
// target's result is independent of which other targets are evaluated
// with it.
func (rt *Retriever) estimateAll(q *request, bounds []float64, todo []bool) ([]float64, []int) {
	if rt.cfg.onEstimate != nil {
		rt.cfg.onEstimate(todo)
	}
	reads := make([]int, 0, len(q.vars))
	for _, v := range q.vars {
		for k, on := range todo {
			if on && slices.Contains(q.reads[k], v) {
				reads = append(reads, v)
				break
			}
		}
	}
	nq, ne := len(q.Targets), rt.ne
	// Fixed chunk grid over the point space, deliberately independent of the
	// worker count: the tasks and their merge order are then identical for
	// every Workers setting, so argmax tie-breaks (and the byte-fetch
	// sequence that hangs off them via reassign) cannot vary with
	// parallelism. Each chunk walks its points in blocks of qoi.BlockSize,
	// in increasing order, and evaluates every QoI whose region meets the
	// block.
	const size = 4096
	nchunks := (ne + size - 1) / size
	// Chunk c's partial max and argmax of QoI k sit at c*nq+k.
	pmax := make([]float64, nchunks*nq)
	parg := make([]int, nchunks*nq)
	run := func(s *estScratch, c int) {
		lo, hi := c*size, min((c+1)*size, ne)
		cmax, carg := pmax[c*nq:(c+1)*nq], parg[c*nq:(c+1)*nq]
		copy(carg, q.lo)
		for blo := lo; blo < hi; blo += qoi.BlockSize {
			bhi := min(blo+qoi.BlockSize, hi)
			some := false
			for k := range s.active {
				s.active[k] = todo[k] && q.lo[k] < bhi && q.hi[k] > blo
				some = some || s.active[k]
			}
			if !some {
				continue
			}
			s.load(rt, reads, bounds, blo, bhi)
			q.prog.Eval(&s.prog, s.active, s.x, s.eb, bhi-blo)
			for k, on := range s.active {
				if !on {
					continue
				}
				jlo, jhi := max(blo, q.lo[k])-blo, min(bhi, q.hi[k])-blo
				if m, j := q.prog.MaxBound(&s.prog, k, jlo, jhi, cmax[k]); j >= 0 {
					cmax[k], carg[k] = m, blo+j
				}
			}
		}
	}
	scr := rt.scratch(min(rt.budget.Workers(), nchunks), nq)
	rt.budget.For(nchunks, func(w, c int) bool {
		run(scr[w], c)
		return true
	})
	est := make([]float64, nq)
	argmax := make([]int, nq)
	for k := 0; k < nq; k++ {
		if !todo[k] {
			continue
		}
		argmax[k] = q.lo[k]
		for c := 0; c < nchunks; c++ {
			if pmax[c*nq+k] >= est[k] {
				est[k] = pmax[c*nq+k]
				argmax[k] = parg[c*nq+k]
			}
		}
		// Guard the estimate against the few ulp the estimator itself
		// spends: report a hair above the raw bound so downstream
		// comparisons of actual ≤ estimated are airtight.
		est[k] *= 1 + 1e-12
	}
	return est, argmax
}

// aim runs Algorithm 4 before a warm request's first fetch, on the
// reconstruction the session already holds. Without it, the first
// iteration fetches to Algorithm 3's seed only to learn, from the estimate
// there, where Algorithm 4 must tighten; a second fetch round then goes to
// the tightened bounds. aim estimates once on the held data at the bounds
// the seed would reach, Reader.Reach(ε), and runs reassign from those
// bounds at the argmax of every target that estimate does not meet, so the
// first fetch goes straight to the tightened bounds and a warm rung usually
// certifies in one round. The pass only aims: certification still happens
// only through the estimate after a fetch. It runs when every variable the
// request reads holds a reconstruction. Its estimate takes the place of the
// paper loop's estimate at the seed, so the count is unchanged, except on
// a request the seed alone certifies, where the pass is one extra.
func (rt *Retriever) aim(q *request) {
	for _, v := range q.vars {
		if rt.data[v] == nil {
			return // cold: nothing held to aim with
		}
	}
	m := rt.cfg.Trace.BeginIter(obs.CatEstimate, "aim", 1)
	defer m.End()
	reach := slices.Clone(rt.achieved)
	for _, v := range q.vars {
		reach[v] = rt.readers[v].Reach(rt.plan.eps[v])
	}
	est, arg := rt.estimate(q, reach)
	for k := range q.Targets {
		if !(est[k] <= q.tol[k]) {
			rt.reassign(q, reach, k, arg[k])
		}
	}
}

// reassign runs Algorithm 4 for target k at its worst point, starting from
// bounds, and reports whether any requested bound changed. Each step
// evaluates the request's program for target k alone over a block of one
// point, the worst, on the first estimate scratch; a masked variable's
// bound there is zero.
func (rt *Retriever) reassign(q *request, bounds []float64, k, worst int) bool {
	s := rt.scratch(1, len(q.Targets))[0]
	clear(s.active)
	s.active[k] = true
	vs := q.reads[k]
	for _, v := range vs {
		s.x[v] = rt.data[v][worst : worst+1]
	}
	return rt.plan.tighten(vs, bounds, q.tol[k], func(cand []float64) float64 {
		for _, v := range vs {
			eb := cand[v]
			if mask := rt.vars[v].ZeroMask; mask != nil && mask[worst] {
				eb = 0
			}
			s.eb[v][0] = eb
		}
		q.prog.Eval(&s.prog, s.active, s.x, s.eb, 1)
		return q.prog.Bound(&s.prog, k)[0]
	})
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
