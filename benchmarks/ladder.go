package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"progqoi"
	"progqoi/internal/bitplane"
	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/encoding"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
	"progqoi/internal/storage"
)

// ladderTols is what one consumer op asks for: every QoI of the dataset
// certified at each of these relative tolerances in turn, on one session,
// down to the paper's 1E-5.
var ladderTols = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}

// rungRef is what the local reference session produced at one rung. The
// oracle holds every op to it.
type rungRef struct {
	data      [][]float64 // copy of Result.Data (nil for variables no QoI uses)
	actual    []float64   // ground-truth QoI errors of data against the generated fields
	retrieved int64
}

// ladder is the part the three do-* workloads share: the dataset, the
// in-memory reference archive and its results, the op, and the probes of
// the decode-side layers. Each workload supplies how the archive is opened.
type ladder struct {
	cfg     config
	dataset string
	ds      *datagen.Dataset
	qois    []progqoi.QoI
	ranges  []float64
	ref     *progqoi.Archive
	rungs   []rungRef

	// What the op consumes, from the reference session: consumed[v] is how
	// many leading fragments of variable v the ladder ingests and bounds[v]
	// the L∞ bound it ends on (+Inf for a variable no QoI uses).
	consumed []int
	bounds   []float64

	// open is the workload's outermost public call; openMetric is the layer
	// metric its span reports under.
	open       func(ctx context.Context) (*progqoi.Archive, error)
	openMetric string
	// counters, when set, snapshots the archive's cumulative transport
	// counters under their layer-metric names; a traced op reports their
	// growth over the ladder.
	counters func(*progqoi.Archive) map[string]float64
}

// newLadder generates nothing itself: ds comes from the workload's seed.
// It refactors ds into the in-memory reference archive, runs the reference
// ladder and checks it against the generated fields.
func newLadder(ctx context.Context, cfg config, dataset string, ds *datagen.Dataset) (*ladder, error) {
	l := &ladder{cfg: cfg, dataset: dataset, ds: ds, qois: ds.QoIs}
	l.ranges = progqoi.QoIRanges(l.qois, ds.Fields)
	var err error
	if l.ref, err = progqoi.Refactor(ds.FieldNames, ds.Fields, ds.Dims); err != nil {
		return nil, err
	}
	sess, err := l.ref.Open()
	if err != nil {
		return nil, err
	}
	var last *progqoi.Result
	for k := range ladderTols {
		res, err := sess.Do(ctx, l.request(k))
		if err != nil {
			return nil, fmt.Errorf("reference rung %g: %w", ladderTols[k], err)
		}
		ref := rungRef{
			data:      make([][]float64, len(res.Data)),
			actual:    progqoi.ActualQoIErrors(l.qois, ds.Fields, res.Data),
			retrieved: res.RetrievedBytes,
		}
		for v, d := range res.Data {
			if d != nil {
				ref.data[v] = append([]float64(nil), d...)
			}
		}
		l.rungs = append(l.rungs, ref)
		if err := l.checkRung(k, res); err != nil {
			return nil, fmt.Errorf("reference session: %w", err)
		}
		last = res
	}
	l.bounds = append([]float64(nil), last.VarBounds...)
	return l, l.findConsumed(last.RetrievedBytes)
}

// request builds rung k: every QoI at ladderTols[k] relative to its range.
func (l *ladder) request(k int) progqoi.Request {
	targets := make([]progqoi.Target, len(l.qois))
	for i, q := range l.qois {
		targets[i] = progqoi.Target{QoI: q, Tolerance: ladderTols[k], Relative: true, Range: l.ranges[i]}
	}
	return progqoi.Request{Targets: targets}
}

// findConsumed derives, per variable, the fragment prefix the ladder
// ingests. A PMGARD reader ends on the prefix bound of its last fragment
// and prefix bounds strictly decrease, so the final bound names the prefix;
// the byte total must reconcile with what the session reports.
func (l *ladder) findConsumed(retrieved int64) error {
	vars := l.ref.Variables()
	l.consumed = make([]int, len(vars))
	var total int64
	for v, vr := range vars {
		if math.IsInf(l.bounds[v], 1) {
			continue
		}
		n := len(vr.Ref.Fragments)
		for i, b := range vr.Ref.PrefixBounds {
			if b == l.bounds[v] {
				n = i + 1
				break
			}
		}
		l.consumed[v] = n
		for _, f := range vr.Ref.Fragments[:n] {
			total += int64(len(f))
		}
	}
	if total != retrieved {
		return fmt.Errorf("consumed fragment prefixes hold %d bytes, the session retrieved %d", total, retrieved)
	}
	return nil
}

// checkRung is the correctness oracle of one rung: certified, the actual
// error within the estimate and the estimate within the tolerance, and the
// reconstruction and byte count bit-identical to the local reference
// session. Bit-identical data has the reference's actual error, so that
// is computed once, in set-up, not per op.
func (l *ladder) checkRung(k int, res *progqoi.Result) error {
	ref := l.rungs[k]
	if !res.ToleranceMet {
		return fmt.Errorf("rung %g: tolerance not met", ladderTols[k])
	}
	for i, q := range l.qois {
		tol := ladderTols[k] * l.ranges[i]
		if !(ref.actual[i] <= res.EstErrors[i] && res.EstErrors[i] <= tol) {
			return fmt.Errorf("rung %g, %s: want actual %g <= estimated %g <= tolerance %g",
				ladderTols[k], q.Name, ref.actual[i], res.EstErrors[i], tol)
		}
	}
	if res.RetrievedBytes != ref.retrieved {
		return fmt.Errorf("rung %g: retrieved %d bytes, reference %d", ladderTols[k], res.RetrievedBytes, ref.retrieved)
	}
	if len(res.Data) != len(ref.data) {
		return fmt.Errorf("rung %g: %d variables, reference %d", ladderTols[k], len(res.Data), len(ref.data))
	}
	for v := range ref.data {
		if len(res.Data[v]) != len(ref.data[v]) {
			return fmt.Errorf("rung %g: variable %d has %d values, reference %d", ladderTols[k], v, len(res.Data[v]), len(ref.data[v]))
		}
		for j, x := range ref.data[v] {
			if math.Float64bits(res.Data[v][j]) != math.Float64bits(x) {
				return fmt.Errorf("rung %g: variable %d differs from the reference at point %d", ladderTols[k], v, j)
			}
		}
	}
	return nil
}

func (l *ladder) rawBytes() int64 { return l.ds.TotalBytes() }

// op is one consumer operation: open the archive, open a session, climb
// the ladder. Only those public calls are timed; the oracle runs between
// the rungs because a Result's Data is valid until the next request.
func (l *ladder) op(ctx context.Context, rec *recorder, id int) opResult {
	return l.opWith(ctx, rec, id)
}

func (l *ladder) opWith(ctx context.Context, rec *recorder, id int, opts ...progqoi.OpenOption) (out opResult) {
	root := rec.begin(l.cfg.workload.Name, -1, id)
	defer rec.end(root)

	sp := rec.begin("progqoi.Open", root, id)
	start := time.Now()
	arch, err := l.open(ctx)
	openTime := time.Since(start)
	rec.end(sp)
	if err != nil {
		return opResult{err: fmt.Errorf("open: %w", err)}
	}
	defer arch.Close()

	var (
		tr        *progqoi.Trace
		trOffset  time.Duration
		fragments atomic.Int64
		before    map[string]float64
	)
	if rec != nil {
		trOffset = rec.now()
		tr = progqoi.NewTrace()
		opts = append(opts, progqoi.WithTrace(tr), progqoi.WithFetchObserver(func(int, int64) { fragments.Add(1) }))
		if l.counters != nil {
			before = l.counters(arch)
		}
	}
	res, doSpans, err := l.climb(ctx, arch, rec, root, id, opts)
	if err != nil {
		return opResult{err: err}
	}
	out = opResult{latency: openTime + res.latency, bytes: res.retrieved}
	if rec == nil {
		return out
	}

	spans := tr.Spans()
	rec.importDoSpans(spans, trOffset, doSpans, id)
	cat, wall, uncovered := attributeDo(spans)
	out.layers = map[string]float64{
		l.openMetric:               openTime.Seconds(),
		"core.iterations":          float64(res.iterations),
		"core.fragments":           float64(fragments.Load()),
		"progqoi.first_do_s":       res.firstDo.Seconds(),
		"progqoi.do_residual_frac": uncovered / wall,
	}
	for _, c := range doCategories {
		out.layers["progqoi.do_"+c+"_s"] = cat[c]
	}
	if l.counters != nil {
		for k, v := range l.counters(arch) {
			out.layers[k] = v - before[k]
		}
	}
	return out
}

// verify holds the traced run to the split it reports: the phase spans
// Session.Do emits must account for the Do wall time to within 10%, or the
// progqoi.do_* metrics do not describe the op. It is checked on the median
// over the traced ops; one descheduled op is not a broken instrument.
func (l *ladder) verify(layers map[string]float64, _ time.Duration) error {
	if r := layers["progqoi.do_residual_frac"]; math.Abs(r) > 0.10 {
		return fmt.Errorf("phase spans leave %.1f%% of the Do wall time uncovered (limit 10%%)", 100*r)
	}
	return nil
}

type climbResult struct {
	latency    time.Duration // Archive.Open + the five Do calls
	firstDo    time.Duration
	iterations int
	retrieved  int64
}

// climb opens a session on arch and runs the five rungs, checking each.
func (l *ladder) climb(ctx context.Context, arch *progqoi.Archive, rec *recorder, root, id int, opts []progqoi.OpenOption) (climbResult, []int, error) {
	var out climbResult
	sp := rec.begin("Archive.Open", root, id)
	start := time.Now()
	sess, err := arch.Open(opts...)
	out.latency = time.Since(start)
	rec.end(sp)
	if err != nil {
		return out, nil, fmt.Errorf("session: %w", err)
	}
	var doSpans []int
	for k := range ladderTols {
		req := l.request(k)
		sp := rec.begin(fmt.Sprintf("Session.Do %g", ladderTols[k]), root, id)
		start := time.Now()
		res, err := sess.Do(ctx, req)
		d := time.Since(start)
		rec.end(sp)
		if rec != nil {
			doSpans = append(doSpans, sp)
		}
		if err != nil {
			return out, nil, fmt.Errorf("rung %g: %w", ladderTols[k], err)
		}
		out.latency += d
		if k == 0 {
			out.firstDo = d
		}
		out.iterations += res.Iterations
		out.retrieved = res.RetrievedBytes

		sp = rec.begin("oracle (untimed)", root, id)
		if l.cfg.corrupt && id >= 0 && k == len(ladderTols)-1 {
			for _, d := range res.Data {
				if d != nil {
					d[0] = math.Float64frombits(math.Float64bits(d[0]) ^ 1)
					break
				}
			}
		}
		err = l.checkRung(k, res)
		rec.end(sp)
		if err != nil {
			return out, nil, err
		}
	}
	return out, doSpans, nil
}

// writeArchive packs the reference archive's variables into st — the
// pre-pack step of set-up. The bytes equal what storage.RefactorTo writes.
func (l *ladder) writeArchive(ctx context.Context, st storage.Store) error {
	w, err := storage.NewArchiveWriter(st, l.dataset)
	if err != nil {
		return err
	}
	for _, v := range l.ref.Variables() {
		if err := w.WriteVariable(ctx, v); err != nil {
			return err
		}
	}
	return w.Close(ctx)
}

// decodeProbes replays what the op consumed through the decode-side layer
// entry points, one layer at a time, and returns per-op seconds. In a real
// op decode and estimation repeat every loop iteration, so core.iterations
// multiplies advance, data and bound.
func (l *ladder) decodeProbes(ctx context.Context, rec *recorder, reps int) (map[string]float64, error) {
	vars := l.ref.Variables()
	var involved []int
	for v := range vars {
		if l.consumed[v] > 0 {
			involved = append(involved, v)
		}
	}
	// The decode pool each reader gets when the involved variables advance
	// concurrently, as core.Retriever splits it.
	workers := runtime.GOMAXPROCS(0)
	share := (workers + len(involved) - 1) / len(involved)

	type bitmap struct {
		blk *bitplane.Block
		sec []byte
	}
	var bitmaps []bitmap
	for _, v := range involved {
		ref := vars[v].Ref
		for i := 0; i < l.consumed[v]; i++ {
			at := ref.Schedule[i]
			buf := ref.Fragments[i]
			if at.Plane == 0 {
				signs, n, err := encoding.GetSection(buf)
				if err != nil {
					return nil, err
				}
				bitmaps = append(bitmaps, bitmap{ref.Blocks[at.Group], signs})
				buf = buf[n:]
			}
			plane, _, err := encoding.GetSection(buf)
			if err != nil {
				return nil, err
			}
			bitmaps = append(bitmaps, bitmap{ref.Blocks[at.Group], plane})
		}
	}

	final := l.rungs[len(l.rungs)-1].data
	var inflate, advance, advAlloc, data, bound, local []float64
	for r := 0; r < reps; r++ {
		root := rec.begin("probes decode", -1, probeOp)

		var perr error
		sp := rec.begin("bitplane.RawBitmap", root, probeOp)
		for _, b := range bitmaps {
			if _, err := b.blk.RawBitmap(b.sec); err != nil {
				perr = err
			}
		}
		inflate = append(inflate, rec.end(sp).Seconds())
		if perr != nil {
			return nil, perr
		}

		var advT, dataT time.Duration
		var advMB float64
		for _, v := range involved {
			rd, err := progressive.NewReader(vars[v].Ref, nil)
			if err != nil {
				return nil, err
			}
			rd.SetWorkers(share)
			sp := rec.begin("progressive.Reader.Advance "+vars[v].Name, root, probeOp)
			mb, _ := allocDelta(func() { _, perr = rd.Advance(ctx, l.bounds[v]) })
			advT += rec.end(sp)
			advMB += mb
			if perr != nil {
				return nil, perr
			}
			sp = rec.begin("progressive.Reader.Data "+vars[v].Name, root, probeOp)
			_, perr = rd.Data()
			dataT += rec.end(sp)
			if perr != nil {
				return nil, perr
			}
		}
		advance = append(advance, advT.Seconds())
		advAlloc = append(advAlloc, advMB)
		data = append(data, dataT.Seconds())

		sp = rec.begin("qoi.TheoremBound", root, probeOp)
		vals := make([]float64, len(vars))
		ebs := make([]float64, len(vars))
		for j := 0; j < l.ds.NumElements(); j++ {
			for v, vr := range vars {
				ebs[v] = l.bounds[v]
				if vr.ZeroMask != nil && vr.ZeroMask[j] {
					ebs[v] = 0
				}
				if final[v] != nil {
					vals[v] = final[v][j]
				}
			}
			for _, q := range l.qois {
				qoi.TheoremBound(q.Expr, vals, ebs)
			}
		}
		bound = append(bound, rec.end(sp).Seconds())

		sp = rec.begin("ladder on the in-memory reference archive", root, probeOp)
		res, _, err := l.climb(ctx, l.ref, nil, -1, probeOp, nil)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("local ladder: %w", err)
		}
		local = append(local, res.latency.Seconds())
		rec.end(root)
	}
	return map[string]float64{
		"bitplane.inflate_s":           medianF(inflate),
		"progressive.advance_s":        medianF(advance),
		"progressive.advance_alloc_mb": medianF(advAlloc),
		"progressive.data_s":           medianF(data),
		"qoi.bound_s":                  medianF(bound),
		"progqoi.local_ladder_s":       medianF(local),
	}, nil
}

// probeOp is the op id probe spans are filed under.
const probeOp = -100

// certify reopens a packed archive and certifies the dataset's QoIs at
// 1e-5 against the generated fields — the end-to-end check that what a
// producer wrote is what a consumer can use.
func certify(ctx context.Context, ref string, ds *datagen.Dataset) error {
	arch, err := progqoi.Open(ctx, ref)
	if err != nil {
		return err
	}
	defer arch.Close()
	sess, err := arch.Open()
	if err != nil {
		return err
	}
	ranges := progqoi.QoIRanges(ds.QoIs, ds.Fields)
	targets := make([]progqoi.Target, len(ds.QoIs))
	for i, q := range ds.QoIs {
		targets[i] = progqoi.Target{QoI: q, Tolerance: 1e-5, Relative: true, Range: ranges[i]}
	}
	res, err := sess.Do(ctx, progqoi.Request{Targets: targets})
	if err != nil {
		return err
	}
	actual := progqoi.ActualQoIErrors(ds.QoIs, ds.Fields, res.Data)
	for i, q := range ds.QoIs {
		if tol := 1e-5 * ranges[i]; !res.ToleranceMet || !(actual[i] <= res.EstErrors[i] && res.EstErrors[i] <= tol) {
			return fmt.Errorf("%s: want actual %g <= estimated %g <= tolerance %g", q.Name, actual[i], res.EstErrors[i], tol)
		}
	}
	return nil
}

// refactorOptions is what `progqoi pack` passes: PMGARD-HB, lossless tail,
// zero mask.
func refactorOptions(workers int) core.RefactorOptions {
	return core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
		Workers:     workers,
	}
}
