package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"progqoi/internal/obs"
)

// manifest mirrors BENCHMARK.json; DisallowUnknownFields holds the file to
// exactly these keys.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables holds BENCHMARK.json and the program's tables
// to the same names, units, directions and bounds, in the same order.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Paths, []string{"benchmarks"}) || !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmarks"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q (or their reasons differ)", i, m.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := setups[w.Name]; !ok {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(m.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, e := range endToEnd {
		name(e.Name)
		got := m.EndToEnd[i]
		if got.Name != e.Name || got.Unit != e.Unit || got.Better != e.Better || got.Bound != e.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the table %+v", i, got, e)
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, direction or bound", e.Name)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			hasSetup = true
			for _, o := range endToEnd {
				if o.Bound > e.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(m.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		name(l.Name)
		got := m.PerLayer[i]
		if got.Name != l.Name || got.Unit != l.Unit || got.Better != l.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the table %s %s %s", i, got, l.Name, l.Unit, l.Better)
		}
		if !unitRE.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("per-layer %s: bad unit or direction", l.Name)
		}
	}
}

// TestLayerPredictionsResolve checks that every layer metric's predicted
// target names an end-to-end metric and a workload that exist.
func TestLayerPredictionsResolve(t *testing.T) {
	metrics := map[string]bool{}
	for _, e := range endToEnd {
		metrics[e.Name] = true
	}
	for _, l := range perLayer {
		if (len(l.Moves) == 0) != (len(l.On) == 0) {
			t.Errorf("%s: a prediction needs both a metric and a workload", l.Name)
		}
		for _, m := range l.Moves {
			if !metrics[m] {
				t.Errorf("%s should move %q, which is not an end-to-end metric", l.Name, m)
			}
		}
		for _, w := range l.On {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("%s should move workload %q, which does not exist", l.Name, w)
			}
		}
	}
}

func toyConfig(t *testing.T, w workloadDef) config {
	return config{workload: w, seed: 1, seconds: 0.1, measure: true, trace: true, size: toySize, workDir: t.TempDir()}
}

// TestWorkloadsToy runs every workload end to end at toy size: no op may
// fail, the printed names are exactly the tables' and spans nest and close.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, rec, err := run(context.Background(), toyConfig(t, w))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%d of %d ops failed (%v)", rep.Failed, rep.Attempted, rep.Notes)
			}
			t.Logf("%d ops, do_residual_frac %.3f, trace_overhead_frac %.3f", rep.Attempted, rep.Layers["progqoi.do_residual_frac"], rep.Layers["obs.trace_overhead_frac"])
			for _, e := range endToEnd {
				if v, ok := rep.EndToEnd[e.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %v, want a positive value", e.Name, v)
				}
			}
			if len(rep.EndToEnd) != len(endToEnd) || len(rep.Layers) != len(perLayer) {
				t.Errorf("reported %d end-to-end and %d per-layer metrics, want %d and %d", len(rep.EndToEnd), len(rep.Layers), len(endToEnd), len(perLayer))
			}
			for _, l := range perLayer {
				v, ok := rep.Layers[l.Name]
				if !ok {
					t.Errorf("per-layer %s not reported", l.Name)
				}
				predicted := false
				for _, on := range l.On {
					predicted = predicted || on == w.Name
				}
				if predicted && v == 0 && l.Name != "client.retried" {
					t.Errorf("per-layer %s reads 0 on %s, a workload it is predicted to move", l.Name, w.Name)
				}
			}
			if rep.Layers["client.retried"] != 0 {
				t.Errorf("client.retried = %g, want 0", rep.Layers["client.retried"])
			}

			if err := rec.check(); err != nil {
				t.Error(err)
			}
			spans := rec.snapshot()
			roots := 0
			for i, self := range selfTimes(spans) {
				if self < 0 {
					t.Errorf("span %q has negative self time %v", spans[i].Name, self)
				}
				if spans[i].Parent < 0 {
					roots++
				}
			}
			if roots == 0 || roots == len(spans) {
				t.Errorf("%d spans, %d of them roots: want ops with children", len(spans), roots)
			}

			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if !res.Correct || res.Attempted != rep.Attempted || len(res.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("result line: correct %v, attempted %d, %d metrics", res.Correct, res.Attempted, len(res.Metrics))
			}
			for _, e := range endToEnd {
				if res.Metrics[e.Name].Unit != e.Unit {
					t.Errorf("result line: %s has unit %q, want %q", e.Name, res.Metrics[e.Name].Unit, e.Unit)
				}
			}
		})
	}
}

// TestOracleRejectsCorruptedResult damages every op's output before the
// oracle sees it; every op must then count as failed. It runs on a second
// seed, whose set-up (reference checks and warm-up ops included) must pass.
// The three do-* workloads share one oracle; do-local-ge stands for them.
func TestOracleRejectsCorruptedResult(t *testing.T) {
	for _, w := range workloads[:2] {
		cfg := toyConfig(t, w)
		cfg.seed, cfg.seconds, cfg.trace, cfg.corrupt = 2, 0.01, false, true
		rep, _, err := run(context.Background(), cfg)
		if err == nil {
			t.Errorf("%s: a run whose every op is damaged reported no error", w.Name)
		}
		if rep == nil || rep.Attempted == 0 || rep.Failed != rep.Attempted {
			t.Errorf("%s: oracle let damaged results through: %+v", w.Name, rep)
		}
	}
}

func TestSpansNestAndClose(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("op", -1, 0)
	a := rec.begin("a", root, 0)
	rec.end(a)
	b := rec.begin("b", root, 0)
	if err := rec.check(); err == nil {
		t.Error("an open span passed the check")
	}
	rec.end(b)
	rec.end(root)
	if err := rec.check(); err != nil {
		t.Error(err)
	}
	spans := rec.snapshot()
	imported := rec.add("late", root, 0, spans[root].End-time.Nanosecond, spans[root].End+time.Second)
	if err := rec.check(); err != nil {
		t.Errorf("an imported span must be clamped into its parent: %v", err)
	}
	if got := rec.snapshot()[imported]; got.End != spans[root].End {
		t.Errorf("imported span ends at %v, parent at %v", got.End, spans[root].End)
	}
	rec.add("orphan", -1, 0, 0, time.Second)
	rec.mu.Lock()
	rec.spans[len(rec.spans)-1].Parent = a // a child that outlives its parent
	rec.mu.Unlock()
	if err := rec.check(); err == nil {
		t.Error("a span escaping its parent passed the check")
	}

	// Self time is the span minus the union of its children.
	self := selfTimes([]span{
		{Name: "p", Parent: -1, Start: 0, End: 100},
		{Name: "c1", Parent: 0, Start: 10, End: 50},
		{Name: "c2", Parent: 0, Start: 40, End: 70},
	})
	if self[0] != 40 || self[1] != 40 || self[2] != 30 {
		t.Errorf("self times %v, want [40 40 30]", self)
	}

	var nilRec *recorder
	if id := nilRec.begin("x", -1, 0); id != -1 || nilRec.end(id) != 0 {
		t.Error("a nil recorder must record nothing")
	}
}

func TestWriteChrome(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("op", -1, 3)
	rec.end(rec.begin("child", root, 3))
	rec.end(root)
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[1].Args["parent"] != float64(root) {
		t.Errorf("trace document: %+v", doc.TraceEvents)
	}
}

// TestAttributeDo: two variables decode and commit at once; each instant is
// shared between the categories active in it, so the split sums to the
// covered wall time however the spans overlap.
func TestAttributeDo(t *testing.T) {
	msec := time.Millisecond
	spans := []obs.Span{
		{Cat: obs.CatDo, Start: 0, Dur: 100 * msec},
		{Cat: obs.CatDecode, Name: "a", Start: 10 * msec, Dur: 30 * msec}, // 10..40
		{Cat: obs.CatDecode, Name: "b", Start: 10 * msec, Dur: 20 * msec}, // 10..30
		{Cat: obs.CatCommit, Name: "b", Start: 30 * msec, Dur: 20 * msec}, // 30..50
		{Cat: obs.CatEstimate, Start: 50 * msec, Dur: 40 * msec},          // 50..90
		{Cat: obs.CatHTTP, Start: 0, Dur: 5 * msec},                       // nested in fetch: ignored
		{Cat: obs.CatEstimate, Start: 200 * msec, Dur: 10 * msec},         // outside any Do: ignored
	}
	cat, wall, uncovered := attributeDo(spans)
	near := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if !near(wall, 0.100) || !near(uncovered, 0.020) {
		t.Errorf("wall %g uncovered %g, want 0.100 and 0.020", wall, uncovered)
	}
	// decode alone 10..30, shared with commit 30..40; commit alone 40..50.
	if !near(cat[obs.CatDecode], 0.025) || !near(cat[obs.CatCommit], 0.015) || !near(cat[obs.CatEstimate], 0.040) {
		t.Errorf("split %v", cat)
	}
	sum := uncovered
	for _, v := range cat {
		sum += v
	}
	if !near(sum, wall) {
		t.Errorf("categories + uncovered = %g, wall = %g", sum, wall)
	}
}

// TestVerifySplit: the traced run's own consistency checks reject a split
// that does not account for the op.
func TestVerifySplit(t *testing.T) {
	var l ladder
	if err := l.verify(map[string]float64{"progqoi.do_residual_frac": 0.03}, time.Second); err != nil {
		t.Error(err)
	}
	if err := l.verify(map[string]float64{"progqoi.do_residual_frac": 0.2}, time.Second); err == nil {
		t.Error("a fifth of the Do wall time uncovered passed")
	}
	var p packBench
	if err := p.verify(map[string]float64{"core.refactor_s": 0.9, "storage.write_s": 0.06}, time.Second); err != nil {
		t.Error(err)
	}
	if err := p.verify(map[string]float64{"core.refactor_s": 0.7, "storage.write_s": 0.06}, time.Second); err == nil {
		t.Error("a pack split missing a quarter of the op passed")
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-trace", "2"}, {"-seconds", "0"}, {"-workload", "nope"}, {"extra"}} {
		if err := cli(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("cli(%v) accepted", args)
		}
	}
}

func TestPercentile(t *testing.T) {
	d := []time.Duration{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if percentile(d, 50) != 5 || percentile(d, 90) != 9 || percentile(d, 100) != 10 {
		t.Errorf("p50 %d p90 %d p100 %d", percentile(d, 50), percentile(d, 90), percentile(d, 100))
	}
	if d[0] != 5 || d[1] != 1 {
		t.Error("percentile reordered its input")
	}
}
