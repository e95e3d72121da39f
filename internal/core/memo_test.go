package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
)

// relTargets asks for every QoI at the relative tolerance rel of its
// value range, the paper's convention: Algorithm 3 seeds with rel.
func relTargets(qois []qoi.QoI, rel float64, ranges []float64) []Target {
	ts := make([]Target, len(qois))
	for k, q := range qois {
		ts[k] = Target{QoI: q, Tolerance: rel, Relative: true, Range: ranges[k]}
	}
	return ts
}

// absTargets asks for every QoI at the absolute tolerance rel × its value
// range, the same tolerance as relTargets, but Algorithm 3 seeds with 0.1.
func absTargets(qois []qoi.QoI, rel float64, ranges []float64) []Target {
	ts := make([]Target, len(qois))
	for k, q := range qois {
		ts[k] = Target{QoI: q, Tolerance: rel * ranges[k]}
	}
	return ts
}

// countTargets is an onEstimate seam that adds the targets of every
// estimateAll pass to *n.
func countTargets(n *int) func(todo []bool) {
	return func(todo []bool) {
		for _, on := range todo {
			if on {
				*n++
			}
		}
	}
}

// checkAgainstFresh returns an OnProgress hook that holds every estimate
// the loop reports, memoized or not, to a fresh estimateAll over the
// session's current state, bit for bit.
func checkAgainstFresh(t *testing.T, rt *Retriever, req *Request, label string) func(Iteration) {
	return func(it Iteration) {
		t.Helper()
		q, err := rt.newRequest(*req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := rt.estimateAll(q, rt.achieved, everyTarget(len(req.Targets)))
		for k := range want {
			if math.Float64bits(it.EstErrors[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s iteration %d, %s: reported %g, fresh estimate %g", label, it.N, req.Targets[k].QoI.Name, it.EstErrors[k], want[k])
			}
		}
	}
}

// TestEstimateMemoOnTwoRungLadder counts the targets the paper loop
// estimates on a two-rung GE ladder. The first iteration of the session
// estimates all six; the first iteration of the second rung estimates
// none, since no reader has moved since the first rung certified; every
// other iteration estimates exactly the targets one of whose variables
// moved. The paper loop keeps the second rung at two iterations.
func TestEstimateMemoOnTwoRungLadder(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	var estimated int
	rt, err := NewRetriever(vars, Config{onEstimate: countTargets(&estimated), paperLoop: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nq := len(ds.QoIs)
	qoiVars := make([][]int, nq)
	for k, q := range ds.QoIs {
		qoiVars[k] = qoi.Vars(q.Expr)
	}
	total, iters := 0, 0
	for rung, rel := range []float64{1e-2, 1e-4} {
		gens := append([]uint64(nil), rt.gen...)
		req := Request{Targets: absTargets(ds.QoIs, rel, ranges)}
		req.OnProgress = func(it Iteration) {
			iters++
			want := 0
			for k := range qoiVars {
				for _, v := range qoiVars[k] {
					if rt.gen[v] != gens[v] || it.N == 1 && rung == 0 {
						want++
						break
					}
				}
			}
			got := estimated
			estimated = 0
			if got != want {
				t.Errorf("rung %d iteration %d: %d targets estimated, want %d", rung, it.N, got, want)
			}
			if rung == 1 && it.N == 1 && want != 0 {
				t.Errorf("a reader moved before the second rung's first estimate")
			}
			total += got
			gens = append(gens[:0], rt.gen...)
		}
		res, err := rt.Retrieve(context.Background(), req)
		if err != nil {
			t.Fatalf("rung %g: %v", rel, err)
		}
		if res.Iterations < 2 && rung == 1 {
			t.Fatalf("rung %g certified in %d iteration; the ladder needs a rung that fetches", rel, res.Iterations)
		}
	}
	if estimated != 0 {
		t.Fatalf("%d targets estimated after the last reported iteration", estimated)
	}
	if total >= nq*iters {
		t.Fatalf("%d targets estimated over %d iterations, want fewer than %d", total, iters, nq*iters)
	}
}

// disjointQoIs parses two targets over disjoint variable sets anew, so
// each request carries QoI values of its own.
func disjointQoIs(t *testing.T, names []string) []qoi.QoI {
	t.Helper()
	var out []qoi.QoI
	for _, src := range []string{"VelocityX^2 + VelocityY", "Pressure / Density"} {
		e, err := qoi.Parse(src, names)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, qoi.QoI{Name: src, Expr: e})
	}
	return out
}

// TestEstimateMemoPerTarget: in a request over disjoint variable sets, a
// target whose variables stay put keeps its estimate, and is never
// evaluated, while another target's variables move, across requests whose
// QoI values are parsed anew each time. It runs the paper loop, whose
// tightened rung takes more than one iteration.
func TestEstimateMemoPerTarget(t *testing.T) {
	ds := smallGE()
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	parse := func() []qoi.QoI { return disjointQoIs(t, ds.FieldNames) }
	// Evaluations of every target, and of the second, which stays put.
	var estimated, still int
	count := countTargets(&estimated)
	rt, err := NewRetriever(vars, Config{paperLoop: true, onEstimate: func(todo []bool) {
		count(todo)
		if todo[1] {
			still++
		}
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ranges := QoIRanges(parse(), ds.Fields)
	var first []float64
	for rung, rels := range [][]float64{{1e-2, 1e-2}, {1e-5, 1e-2}} {
		qs := parse()
		req := Request{Targets: []Target{
			{QoI: qs[0], Tolerance: rels[0] * ranges[0]},
			{QoI: qs[1], Tolerance: rels[1] * ranges[1]},
		}}
		estimated = 0
		res, err := rt.Retrieve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if rung == 0 {
			if still == 0 {
				t.Fatal("the first rung never evaluated the second target")
			}
			first = res.EstErrors
			still = 0
			continue
		}
		// Only the tightened target is estimated, one pass per iteration
		// but the first; Pressure and Density never move.
		if want := res.Iterations - 1; res.Iterations < 2 || estimated != want {
			t.Fatalf("%d iterations estimated %d targets, want %d", res.Iterations, estimated, want)
		}
		if still != 0 {
			t.Fatalf("the target that stayed put was evaluated %d times", still)
		}
		if math.Float64bits(res.EstErrors[1]) != math.Float64bits(first[1]) {
			t.Fatalf("untouched target re-certified at %g, was %g", res.EstErrors[1], first[1])
		}
	}
}

// TestEstimateMemoMatchesFreshEstimates holds every reported estimate of a
// ladder to a fresh estimateAll, for every method, Workers 1 and 2, with
// and without regions (including one QoI twice over different regions).
func TestEstimateMemoMatchesFreshEstimates(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	ne := ds.NumElements()
	qois := append(append([]qoi.QoI(nil), ds.QoIs...), ds.QoIs[0])
	ranges = append(ranges, ranges[0])
	regions := []Region{{}, {Lo: 100, Hi: 900}, {}, {Lo: 0, Hi: ne / 2}, {}, {Lo: 7, Hi: 8}, {Lo: ne / 2, Hi: ne}}
	for _, m := range []progressive.Method{progressive.PMGARDHB, progressive.PMGARD, progressive.PSZ3, progressive.PSZ3Delta} {
		vars := refactorDataset(t, ds, m)
		for _, cfg := range []Config{{Workers: 1}, {Workers: 2}} {
			for _, withRegions := range []bool{false, true} {
				rt, err := NewRetriever(vars, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, rel := range []float64{1e-1, 1e-3, 1e-5} {
					req := Request{Targets: absTargets(qois, rel, ranges)}
					if withRegions {
						for k := range req.Targets {
							req.Targets[k].Region = regions[k]
						}
					}
					req.OnProgress = checkAgainstFresh(t, rt, &req, m.String())
					if _, err := rt.Retrieve(context.Background(), req); err != nil && !errors.Is(err, ErrExhausted) {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestEstimateMemoAfterCancelledAdvance: a retrieval cancelled between two
// fragment ingests leaves a reader that has moved without a refresh. The
// resumed retrieval must see it move and estimate afresh.
func TestEstimateMemoAfterCancelledAdvance(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PSZ3Delta)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed, ingested := false, 0
	rt, err := NewRetriever(vars, Config{Workers: 1}, func(int, int64) {
		if armed {
			if ingested++; ingested == 2 {
				cancel()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Targets: absTargets(ds.QoIs, 1e-2, ranges)}
	if _, err := rt.Retrieve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req.Targets = absTargets(ds.QoIs, 1e-6, ranges)
	armed = true
	if _, err := rt.Retrieve(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retrieval returned %v", err)
	}
	if ingested < 2 {
		t.Fatalf("cancelled after %d ingests; the test needs a cut Advance", ingested)
	}
	req.OnProgress = checkAgainstFresh(t, rt, &req, "resumed")
	res, err := rt.Retrieve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	actual := ActualQoIErrors(ds.QoIs, ds.Fields, res.Data)
	for k := range actual {
		if actual[k] > res.EstErrors[k] {
			t.Fatalf("%s: actual %g above certified %g", ds.QoIs[k].Name, actual[k], res.EstErrors[k])
		}
	}
}

// TestEstimateMemoAimPass holds the default loop's estimate count to the
// paper loop's: on a warm rung the aim pass takes the place of the paper
// loop's first estimate, at the seed, so both loops estimate as many
// targets per rung, with absolute tolerances and with relative ones that
// seed Algorithm 3. Then, in a request over disjoint variable sets whose
// seed moves only one target's variables, the pass evaluates that target
// and no point of the other.
func TestEstimateMemoAimPass(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	ladder := []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}
	for _, seeded := range []bool{false, true} {
		// targets[l][r] counts the targets loop l estimates on rung r.
		var targets [2][]int
		for l, paper := range []bool{true, false} {
			var estimated int
			rt, err := NewRetriever(vars, Config{onEstimate: countTargets(&estimated), paperLoop: paper}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range ladder {
				req := Request{Targets: absTargets(ds.QoIs, rel, ranges)}
				if seeded {
					req.Targets = relTargets(ds.QoIs, rel, ranges)
				}
				if _, err := rt.Retrieve(context.Background(), req); err != nil {
					t.Fatalf("rung %g: %v", rel, err)
				}
				targets[l] = append(targets[l], estimated)
				estimated = 0
			}
		}
		if !slices.Equal(targets[0], targets[1]) {
			t.Errorf("seeded=%v: targets estimated per rung %v, paper loop %v", seeded, targets[1], targets[0])
		}
	}

	// Evaluations of the first target, which the seed moves, and of the
	// second, which it leaves.
	var moved, still int
	rt, err := NewRetriever(vars, Config{onEstimate: func(todo []bool) {
		if todo[0] {
			moved++
		}
		if todo[1] {
			still++
		}
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	qois := disjointQoIs(t, ds.FieldNames)
	ranges = QoIRanges(qois, ds.Fields)
	if _, err := rt.Retrieve(context.Background(), Request{Targets: absTargets(qois, 1e-2, ranges)}); err != nil {
		t.Fatal(err)
	}
	moved, still = 0, 0
	// Seed only the first target's variables at its new tolerance.
	qois = disjointQoIs(t, ds.FieldNames)
	req := Request{Targets: []Target{
		{QoI: qois[0], Tolerance: 1e-5, Relative: true, Range: ranges[0]},
		{QoI: qois[1], Tolerance: 1e-2 * ranges[1]},
	}}
	res, err := rt.Retrieve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if still != 0 {
		t.Fatalf("the target the seed leaves unmoved was evaluated %d times", still)
	}
	// The pass and every iteration estimate the moving target afresh.
	if want := res.Iterations + 1; moved != want {
		t.Fatalf("%d iterations estimated the moving target %d times, want %d", res.Iterations, moved, want)
	}
}
