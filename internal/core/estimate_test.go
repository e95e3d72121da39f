package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
)

// TestCompiledEstimatorMatchesTreeWalk holds the estimator, the request's
// compiled qoi.Program, to a per-point walk of qoi.TheoremBound over the
// session's data: at every iteration of a retrieval, estimateAll's max and
// argmax must be bit-identical to theoremEstimate's, for every Workers,
// region and mask setting, and equal to what the loop reported.
func TestCompiledEstimatorMatchesTreeWalk(t *testing.T) {
	// 10240 points: three 4096-point chunks, the last one partial.
	ds := datagen.GE("GE-estimate", 40, 256, 7)
	ne := ds.NumElements()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	unmasked := refactorOptions(progressive.PMGARDHB)
	unmasked.MaskZeros = false
	varsUnmasked, err := RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, unmasked)
	if err != nil {
		t.Fatal(err)
	}
	varsMasked := refactorDataset(t, ds, progressive.PMGARDHB)
	// Regions that start mid-block, straddle a chunk boundary, hold one
	// point, or are the whole domain.
	regions := []Region{{Lo: 100, Hi: 4500}, {}, {Lo: 5000, Hi: 5001}, {Lo: 4096, Hi: ne}, {Lo: 0, Hi: 513}, {}}

	for _, workers := range []int{1, 3} {
		for _, withRegions := range []bool{false, true} {
			for _, masked := range []bool{true, false} {
				req := Request{Targets: relTargets(ds.QoIs, 1e-4, ranges)}
				if withRegions {
					for k := range req.Targets {
						req.Targets[k].Region = regions[k]
					}
				}
				vars := varsMasked
				name := map[bool]string{false: "whole", true: "regions"}[withRegions]
				if !masked {
					vars = varsUnmasked
					name += "/unmasked"
				}

				rt, err := NewRetriever(vars, Config{Workers: workers}, nil)
				if err != nil {
					t.Fatal(err)
				}
				q, err := rt.newRequest(req)
				if err != nil {
					t.Fatal(err)
				}
				iters := 0
				req.OnProgress = func(it Iteration) {
					iters++
					est, arg := rt.estimateAll(q, rt.achieved, everyTarget(len(req.Targets)))
					wantEst, wantArg := theoremEstimate(rt, req, ne, rt.achieved)
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
				if _, err := rt.Retrieve(context.Background(), req); err != nil && !errors.Is(err, ErrExhausted) {
					t.Fatal(err)
				}
				if iters == 0 {
					t.Fatalf("workers=%d %s: no iteration ran", workers, name)
				}
			}
		}
	}
}

// TestEstimateScratchReuseAcrossPasses holds estimateAll passes that reuse
// their scratches, and so their bound columns, to the tree walk at the same
// bounds: passes at bounds A, B, B and A, each after the first preceded by
// a reassign of T at its bounds, which writes the first scratch's columns
// at the first point of a block, so a pass at the bounds its columns last
// held follows a write. Two more targets are one point each: T at the
// first point of a block, and VTOT just past a masked offset of the block
// before, where GE blocks of 320 points put the zero mask at different
// offsets in consecutive estimate blocks. A bound column left as reassign
// or the block before wrote it shows in their bounds.
func TestEstimateScratchReuseAcrossPasses(t *testing.T) {
	// 10240 points: three 4096-point chunks, the last one partial.
	ds := datagen.GE("GE-reuse", 32, 320, 5)
	ne := ds.NumElements()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	if !vars[qoi.GEVx].ZeroMask[320] || vars[qoi.GEVx].ZeroMask[832] {
		t.Fatal("the mask is not where the one-point targets expect it")
	}
	const vtot, temp = 0, 1
	req := Request{Targets: relTargets(ds.QoIs, 1e-3, ranges)}
	req.Targets = append(req.Targets, req.Targets[temp], req.Targets[vtot])
	req.Targets[6].Region = Region{Lo: 4096, Hi: 4097}
	req.Targets[7].Region = Region{Lo: 832, Hi: 833}
	for _, workers := range []int{1, 3} {
		rt, err := NewRetriever(vars, Config{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Retrieve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		q, err := rt.newRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		todo := everyTarget(len(req.Targets))
		a := slices.Clone(rt.achieved)
		b := slices.Clone(a)
		for v := range b {
			b[v] *= 64
		}
		var arg []int
		for pass, bounds := range [][]float64{a, b, b, a} {
			if pass > 0 {
				rt.reassign(q, bounds, temp, arg[temp])
			}
			var est []float64
			est, arg = rt.estimateAll(q, bounds, todo)
			wantEst, wantArg := theoremEstimate(rt, req, ne, bounds)
			for k := range est {
				if math.Float64bits(est[k]) != math.Float64bits(wantEst[k]) || arg[k] != wantArg[k] {
					t.Errorf("workers=%d pass %d, target %d: (%g at %d), tree walk (%g at %d)",
						workers, pass, k, est[k], arg[k], wantEst[k], wantArg[k])
				}
			}
		}
	}
}

// theoremEstimate is estimateAll's answer rebuilt from qoi.TheoremBound,
// one point at a time over the session's data at the given bounds: per
// target, the largest bound over its region and where it is, found as
// estimateAll finds it. Each fixed 4096-point chunk keeps its first
// maximum, a later chunk that equals the running maximum takes over, and
// the result carries the same 1e-12 guard.
func theoremEstimate(rt *Retriever, req Request, ne int, bounds []float64) ([]float64, []int) {
	const chunk = 4096
	vals, ebs := make([]float64, len(rt.vars)), make([]float64, len(rt.vars))
	est, arg := make([]float64, len(req.Targets)), make([]int, len(req.Targets))
	for k, t := range req.Targets {
		lo, hi := 0, ne
		if !t.Region.whole() {
			lo, hi = t.Region.Lo, t.Region.Hi
		}
		arg[k] = lo
		for c := 0; c < ne; c += chunk {
			m, at := 0.0, lo
			for j := max(c, lo); j < min(c+chunk, hi); j++ {
				for v := range rt.vars {
					if rt.data[v] != nil {
						vals[v] = rt.data[v][j]
					}
					ebs[v] = bounds[v]
					if mask := rt.vars[v].ZeroMask; mask != nil && mask[j] {
						ebs[v] = 0
					}
				}
				_, b := qoi.TheoremBound(t.QoI.Expr, vals, ebs)
				if math.IsNaN(b) {
					b = math.Inf(1) // as qoi.Program.Bound reads it
				}
				if b > m {
					m, at = b, j
				}
			}
			if m >= est[k] {
				est[k], arg[k] = m, at
			}
		}
		est[k] *= 1 + 1e-12
	}
	return est, arg
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
