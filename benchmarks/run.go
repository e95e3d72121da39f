package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Run shape, the same for every workload: one process, a closed loop (a
// client starts its next op when the previous one returns), and the phases
//
//	set-up → measured phase, tracing off, timing only the outermost public
//	calls → traced phase → layer probes.
//
// A measured run repeats set-up and measured phase over several rounds (see
// run). A run that reports only per-layer metrics replaces the measured
// phase by a shorter untraced phase, the baseline of the traced ops.

const (
	measuredRounds = 3 // rounds per measured run, each on its own sub-seed
	warmupOps      = 3 // untimed ops at the end of every set-up
	minOps         = 3 // ops per client and phase, however short the phase
)

type size int

const (
	fullSize size = iota
	toySize       // bench_test.go: same code, inputs small enough for go test -short
)

type config struct {
	workload workloadDef
	seed     int64
	seconds  float64
	measure  bool // report the end-to-end metrics
	trace    bool // report the per-layer metrics
	size     size
	workDir  string
	corrupt  bool // self-test: damage every op's output before the oracle sees it
}

// opResult is what one op hands back. latency sums the timed public calls
// only; the oracle runs between and after them and its verdict is err.
type opResult struct {
	latency time.Duration
	bytes   int64              // numerator of bytes_ratio
	layers  map[string]float64 // traced ops: this op's own per-layer values
	err     error
}

// instance is one workload after set-up: dataset generated from the seed
// and packed, in-process servers started, reference results computed.
type instance interface {
	// op runs one operation and checks its output; rec is nil when tracing
	// is off.
	op(ctx context.Context, rec *recorder, id int) opResult
	// rawBytes is the denominator of bytes_ratio.
	rawBytes() int64
	// phaseBegin and phaseEnd bracket a phase for layers that keep
	// cumulative counters; phaseEnd may also run end-of-phase checks.
	phaseBegin()
	phaseEnd(ctx context.Context, ops int) (map[string]float64, error)
	// probes replays the op's real inputs through each layer's public
	// entry point. baseline is the untraced op median of this run.
	probes(ctx context.Context, rec *recorder, reps int, baseline time.Duration) (map[string]float64, error)
	// verify checks that the traced ops' layer split accounts for the op.
	verify(layers map[string]float64, tracedP50 time.Duration) error
	close() error
}

var setups = map[string]func(context.Context, config) (instance, error){
	"pack-nyx":        setupPack,
	"do-local-ge":     setupLocal,
	"do-cluster3-s3d": setupCluster,
	"do-objstore-s3d": setupObjstore,
}

// report is everything one run measured.
type report struct {
	Workload   string
	Seed       int64
	NProc      int
	GoMaxProcs int
	GoVersion  string
	Commit     string
	Attempted  int
	Failed     int
	Samples    int // correct ops behind the end-to-end latencies
	MBPerOp    float64
	EndToEnd   map[string]float64
	Layers     map[string]float64
	Notes      []string
}

// phaseStats is one closed-loop phase.
type phaseStats struct {
	lat       []time.Duration // correct ops only
	attempted int
	failed    int
	bytes     int64 // per-op bytes_ratio numerator; -1 once two ops disagree
	allocMB   float64
	mallocs   float64
	layers    []map[string]float64
	extra     map[string]float64
}

// runPhase drives the workload's clients for dur (and at least minOps ops
// per client), each starting its next op when the previous one returns.
func runPhase(ctx context.Context, inst instance, w workloadDef, dur time.Duration, minOps int, rec *recorder, nextID *atomic.Int64) phaseStats {
	var (
		mu sync.Mutex
		ps phaseStats
		wg sync.WaitGroup
	)
	inst.phaseBegin()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(dur)
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < minOps || time.Now().Before(deadline); n++ {
				res := inst.op(ctx, rec, int(nextID.Add(1))-1)
				mu.Lock()
				ps.attempted++
				switch {
				case res.err != nil:
					ps.failed++
					if ps.failed <= 3 {
						fmt.Fprintf(os.Stderr, "%s: op failed: %v\n", w.Name, res.err)
					}
				default:
					ps.lat = append(ps.lat, res.latency)
					if len(ps.lat) == 1 {
						ps.bytes = res.bytes
					} else if ps.bytes != res.bytes {
						ps.bytes = -1
					}
					if res.layers != nil {
						ps.layers = append(ps.layers, res.layers)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	ps.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(ps.attempted)
	ps.mallocs = float64(after.Mallocs-before.Mallocs) / float64(ps.attempted)
	extra, err := inst.phaseEnd(ctx, ps.attempted)
	if err != nil {
		ps.failed++
		fmt.Fprintf(os.Stderr, "%s: end-of-phase check failed: %v\n", w.Name, err)
	}
	ps.extra = extra
	return ps
}

// setUp builds the instance and runs the warm-up ops.
func setUp(ctx context.Context, cfg config) (instance, error) {
	inst, err := setups[cfg.workload.Name](ctx, cfg)
	if err != nil {
		return nil, err
	}
	warmups := warmupOps
	if cfg.size == toySize {
		warmups = 1
	}
	for i := 0; i < warmups; i++ {
		if res := inst.op(ctx, nil, -1-i); res.err != nil {
			inst.close() //nolint:errcheck // the warm-up error is the one to report
			return nil, fmt.Errorf("warm-up op: %w", res.err)
		}
	}
	return inst, nil
}

// run executes one workload and returns its report and, for a traced run,
// the recorder holding its spans.
//
// A measured run is measuredRounds rounds. Each round generates its own
// dataset from a sub-seed of the run's seed, sets up, and measures for an
// equal share of the run. The seed changes the data and the data changes
// the work (between seeds the GE ladder takes 10 or 11 loop iterations), so
// one dataset per run would make a run's numbers as much a property of its
// seed as of the program. Timings are medians over the rounds, which also
// shrugs off a burst of interference on a shared box; the two byte counts
// are totals over the rounds, which average the datasets. The traced phase
// and the probes run on the first round's instance.
func run(ctx context.Context, cfg config) (*report, *recorder, error) {
	w := cfg.workload
	rep := &report{
		Workload: w.Name, Seed: cfg.seed,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		EndToEnd: map[string]float64{}, Layers: map[string]float64{},
	}
	if w.Clients > rep.GoMaxProcs {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d clients on GOMAXPROCS=%d: clients share processors", w.Clients, rep.GoMaxProcs))
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	rounds, phase := 1, total/4
	if cfg.measure {
		if cfg.size == fullSize {
			rounds = measuredRounds
		}
		phase = total / time.Duration(rounds)
	}

	var (
		rec                   *recorder
		nextID                atomic.Int64
		setupS, opsPerS, p50S []float64
		relative              []float64 // every op's latency ÷ its round's median
		bytes, raw, allocMB   float64   // totals over the rounds
		ops                   int
	)
	for r := 0; r < rounds; r++ {
		c := cfg
		c.seed = cfg.seed*measuredRounds + int64(r)
		start := time.Now()
		inst, err := setUp(ctx, c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())

		base := runPhase(ctx, inst, w, phase, minOps, nil, &nextID)
		rep.Attempted += base.attempted
		rep.Failed += base.failed
		if len(base.lat) == 0 {
			inst.close() //nolint:errcheck // the failed ops are the error to report
			return rep, nil, fmt.Errorf("%s: no op succeeded", w.Name)
		}
		if base.bytes < 0 {
			rep.Failed++
			rep.Notes = append(rep.Notes, "ops disagreed on their byte count")
		}
		rep.Samples += len(base.lat)
		rep.MBPerOp = float64(inst.rawBytes()) / 1e6
		p50 := percentile(base.lat, 50)
		var sum time.Duration
		for _, d := range base.lat {
			sum += d
			relative = append(relative, d.Seconds()/p50.Seconds())
		}
		opsPerS = append(opsPerS, float64(w.Clients)*float64(len(base.lat))/sum.Seconds())
		p50S = append(p50S, ms(p50))
		bytes += float64(base.bytes)
		raw += float64(inst.rawBytes())
		allocMB += base.allocMB * float64(base.attempted)
		ops += base.attempted

		if r == 0 && cfg.trace {
			rec = newRecorder()
			err = traceRound(ctx, cfg, inst, rep, rec, base, total/4, &nextID)
		}
		if cerr := inst.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
		if err != nil {
			return rep, rec, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	if cfg.measure {
		tail := percentile(relative, w.TailPct)
		rep.EndToEnd["setup_s"] = medianF(setupS)
		rep.EndToEnd["ops_per_s"] = medianF(opsPerS)
		rep.EndToEnd["op_p50_ms"] = medianF(p50S)
		rep.EndToEnd["op_tail_ms"] = medianF(p50S) * tail
		rep.EndToEnd["bytes_ratio"] = bytes / raw
		rep.EndToEnd["alloc_mb_per_op"] = allocMB / float64(ops)
		if beyond := float64(len(relative)) * (1 - w.TailPct/100); beyond < 10 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("only %.1f samples beyond p%g: op_tail_ms is noisier than designed", beyond, w.TailPct))
		}
	}
	return rep, rec, nil
}

// traceRound runs the traced phase and the layer probes on inst and fills
// the report's per-layer metrics. base is the untraced phase just run on
// the same instance, the baseline the traced ops are compared with.
func traceRound(ctx context.Context, cfg config, inst instance, rep *report, rec *recorder, base phaseStats, dur time.Duration, nextID *atomic.Int64) error {
	baseP50 := percentile(base.lat, 50)
	traced := runPhase(ctx, inst, cfg.workload, dur, minOps, rec, nextID)
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed
	for _, l := range perLayer {
		rep.Layers[l.Name] = 0
	}
	for k, v := range medianLayers(traced.layers) {
		rep.Layers[k] = v
	}
	for k, v := range base.extra {
		rep.Layers[k] = v
	}
	rep.Layers["runtime.mallocs_per_op"] = base.mallocs
	if len(traced.lat) > 0 {
		tracedP50 := percentile(traced.lat, 50)
		rep.Layers["obs.trace_overhead_frac"] = (tracedP50 - baseP50).Seconds() / baseP50.Seconds()
		// At toy size an op is mostly fixed overhead no span covers; the
		// split is held to account only on the real inputs.
		if err := inst.verify(rep.Layers, tracedP50); err != nil && cfg.size == fullSize {
			rep.Failed++
			rep.Notes = append(rep.Notes, "traced split: "+err.Error())
		}
	}
	reps := 3
	if cfg.size == toySize {
		reps = 1
	}
	probed, err := inst.probes(ctx, rec, reps, baseP50)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for k, v := range probed {
		rep.Layers[k] = v
	}
	for k := range rep.Layers {
		if !isLayer(k) {
			return fmt.Errorf("layer metric %q is not in the table", k)
		}
	}
	if err := rec.check(); err != nil {
		return fmt.Errorf("span recorder: %w", err)
	}
	return nil
}

func isLayer(name string) bool {
	for _, l := range perLayer {
		if l.Name == name {
			return true
		}
	}
	return false
}

// medianLayers reduces the traced ops' per-op layer values to one median
// per metric (counts repeat exactly, so their median is the count).
func medianLayers(ops []map[string]float64) map[string]float64 {
	byName := map[string][]float64{}
	for _, m := range ops {
		for k, v := range m {
			byName[k] = append(byName[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range byName {
		out[k] = medianF(vs)
	}
	return out
}

// percentile is the nearest-rank q-th percentile of a non-empty sample.
func percentile[T cmp.Ordered](v []T, q float64) T {
	s := slices.Clone(v)
	slices.Sort(s)
	return s[int(math.Ceil(q/100*float64(len(s))))-1]
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocDelta runs fn and returns the process-wide TotalAlloc and Mallocs
// it caused. Probes call it from one goroutine with nothing else running,
// so the deltas are fn's own (plus, on the remote workloads, the in-process
// servers fn talks to).
func allocDelta(fn func()) (allocMB float64, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6, after.Mallocs - before.Mallocs
}
