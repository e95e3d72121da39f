package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
)

// TestCompiledEstimatorMatchesTreeWalk holds the default estimator, the
// request's compiled qoi.Program, to the per-point tree walk of
// qoi.TheoremBound: at every iteration of a retrieval, estimateAll's max
// and argmax must be bit-identical between the two, for every Workers,
// region and mask setting, and a whole retrieval under each must fetch,
// iterate and certify identically.
func TestCompiledEstimatorMatchesTreeWalk(t *testing.T) {
	// 10240 points: three 4096-point chunks, the last one partial.
	ds := datagen.GE("GE-estimate", 40, 256, 7)
	ne := ds.NumElements()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	tols := make([]float64, len(ds.QoIs))
	rels := make([]float64, len(ds.QoIs))
	for k := range tols {
		rels[k] = 1e-4
		tols[k] = rels[k] * ranges[k]
	}
	// Regions that start mid-block, straddle a chunk boundary, hold one
	// point, or are the whole domain.
	regions := []Region{{Lo: 100, Hi: 4500}, {}, {Lo: 5000, Hi: 5001}, {Lo: 4096, Hi: ne}, {Lo: 0, Hi: 513}, {}}
	exprs := make([]qoi.Expr, len(ds.QoIs))
	for k, q := range ds.QoIs {
		exprs[k] = q.Expr
	}
	prog, ok := qoi.Compile(exprs)
	if !ok {
		t.Fatal("GE QoIs did not compile")
	}
	used := []int{0, 1, 2, 3, 4}

	for _, workers := range []int{1, 3} {
		for _, withRegions := range []bool{false, true} {
			for _, disableMask := range []bool{false, true} {
				req := Request{QoIs: ds.QoIs, Tolerances: tols, InitRel: rels}
				if withRegions {
					req.Regions = regions
				}
				cfg := Config{Workers: workers, DisableMask: disableMask, MaxIters: 8}
				name := func() string {
					return map[bool]string{false: "whole", true: "regions"}[withRegions] +
						map[bool]string{false: "", true: "/unmasked"}[disableMask]
				}()

				rt, err := NewRetriever(vars, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				iters := 0
				req.OnProgress = func(it Iteration) {
					iters++
					est, arg := rt.estimateAll(req, prog, used, ne, everyTarget(len(req.QoIs)))
					rt.cfg.Estimator = qoi.TheoremBound
					wantEst, wantArg := rt.estimateAll(req, nil, used, ne, everyTarget(len(req.QoIs)))
					rt.cfg.Estimator = nil
					for k := range est {
						if math.Float64bits(est[k]) != math.Float64bits(wantEst[k]) || arg[k] != wantArg[k] {
							t.Errorf("workers=%d %s iteration %d, %s: compiled (%g at %d), tree walk (%g at %d)",
								workers, name, it.N, ds.QoIs[k].Name, est[k], arg[k], wantEst[k], wantArg[k])
						}
						if math.Float64bits(est[k]) != math.Float64bits(it.EstErrors[k]) {
							t.Errorf("workers=%d %s iteration %d, %s: re-estimate %g, loop reported %g",
								workers, name, it.N, ds.QoIs[k].Name, est[k], it.EstErrors[k])
						}
					}
				}
				got, err := rt.Retrieve(context.Background(), req)
				if err != nil && !errors.Is(err, ErrExhausted) {
					t.Fatal(err)
				}
				if iters == 0 {
					t.Fatalf("workers=%d %s: no iteration ran", workers, name)
				}

				req.OnProgress = nil
				cfg.Estimator = qoi.TheoremBound
				ref, err := NewRetriever(vars, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Retrieve(context.Background(), req)
				if err != nil && !errors.Is(err, ErrExhausted) {
					t.Fatal(err)
				}
				sameRetrieval(t, got, want)
			}
		}
	}
}

// everyTarget is estimateAll's todo for a pass over all n targets.
func everyTarget(n int) []bool {
	todo := make([]bool, n)
	for k := range todo {
		todo[k] = true
	}
	return todo
}

// sameRetrieval fails unless two results fetched, iterated, certified and
// reconstructed identically.
func sameRetrieval(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.RetrievedBytes != want.RetrievedBytes || got.ToleranceMet != want.ToleranceMet {
		t.Fatalf("(%d iterations, %d B, met %v), want (%d, %d B, %v)",
			got.Iterations, got.RetrievedBytes, got.ToleranceMet, want.Iterations, want.RetrievedBytes, want.ToleranceMet)
	}
	for k := range want.EstErrors {
		if math.Float64bits(got.EstErrors[k]) != math.Float64bits(want.EstErrors[k]) {
			t.Fatalf("QoI %d: certified %g, want %g", k, got.EstErrors[k], want.EstErrors[k])
		}
	}
	for v := range want.Data {
		for j := range want.Data[v] {
			if math.Float64bits(got.Data[v][j]) != math.Float64bits(want.Data[v][j]) {
				t.Fatalf("variable %d point %d: reconstruction differs", v, j)
			}
		}
	}
}

// opaque is an Expr type from outside package qoi, which qoi.Compile
// cannot lower; it delegates to the expression it wraps.
type opaque struct{ qoi.Expr }

// TestForeignExprCertifiesThroughTreeWalk: a request holding an Expr type
// qoi.Compile does not know still certifies under the default estimator,
// through the per-point tree walk, exactly as the compiled request does.
func TestForeignExprCertifiesThroughTreeWalk(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	mach := ds.QoIs[3]
	wrapped := qoi.QoI{Name: mach.Name, Expr: opaque{mach.Expr}}
	if _, ok := qoi.Compile([]qoi.Expr{wrapped.Expr}); ok {
		t.Fatal("qoi.Compile lowered a foreign Expr type")
	}
	retrieve := func(q qoi.QoI) *Result {
		rt, err := NewRetriever(vars, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Retrieve(context.Background(), Request{QoIs: []qoi.QoI{q}, Tolerances: []float64{1e-4 * ranges[3]}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got := retrieve(wrapped)
	actual := ActualQoIErrors([]qoi.QoI{mach}, ds.Fields, got.Data)
	if !got.ToleranceMet || actual[0] > got.EstErrors[0] || got.EstErrors[0] > 1e-4*ranges[3] {
		t.Fatalf("met %v, actual %g, estimated %g, tolerance %g", got.ToleranceMet, actual[0], got.EstErrors[0], 1e-4*ranges[3])
	}
	sameRetrieval(t, got, retrieve(mach))
}
