package core

import (
	"context"
	"errors"
	"maps"
	"math"
	"slices"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/obs"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
)

// smallGE builds a fast GE stand-in for unit tests.
func smallGE() *datagen.Dataset { return datagen.GE("GE-test", 12, 256, 99) }

// refactorOptions are the options the tests refactor with.
func refactorOptions(method progressive.Method) RefactorOptions {
	return RefactorOptions{Progressive: progressive.Options{Method: method, LosslessTail: true}, MaskZeros: true}
}

func refactorDataset(t *testing.T, ds *datagen.Dataset, method progressive.Method) []*Variable {
	t.Helper()
	vars, err := RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, refactorOptions(method))
	if err != nil {
		t.Fatal(err)
	}
	return vars
}

func TestRetrieveMeetsQoITolerancesAllMethods(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	for _, method := range []progressive.Method{progressive.PSZ3, progressive.PSZ3Delta, progressive.PMGARD, progressive.PMGARDHB} {
		vars := refactorDataset(t, ds, method)
		rt, err := NewRetriever(vars, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		targets := relTargets(ds.QoIs, 1e-4, ranges)
		res, err := rt.Retrieve(context.Background(), Request{Targets: targets})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !res.ToleranceMet {
			t.Fatalf("%v: tolerance not met", method)
		}
		// The hard guarantee: actual ≤ estimated ≤ requested, per QoI.
		actual := ActualQoIErrors(ds.QoIs, ds.Fields, res.Data)
		for k, q := range ds.QoIs {
			if tol := 1e-4 * ranges[k]; res.EstErrors[k] > tol {
				t.Errorf("%v %s: estimated %g > tolerance %g", method, q.Name, res.EstErrors[k], tol)
			}
			if actual[k] > res.EstErrors[k] {
				t.Errorf("%v %s: actual %g > estimated %g", method, q.Name, actual[k], res.EstErrors[k])
			}
		}
		if res.RetrievedBytes <= 0 {
			t.Errorf("%v: no bytes retrieved", method)
		}
	}
}

func TestIncrementalSessionReusesBytes(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	rt, err := NewRetriever(vars, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vtot := []qoi.QoI{ds.QoIs[0]}
	run := func(rel float64) int64 {
		res, err := rt.Retrieve(context.Background(), Request{Targets: relTargets(vtot, rel, ranges)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.ToleranceMet {
			t.Fatalf("rel %g not met", rel)
		}
		return res.RetrievedBytes
	}
	b1 := run(1e-2)
	b2 := run(1e-4)
	b3 := run(1e-6)
	if !(b1 < b2 && b2 < b3) {
		t.Fatalf("cumulative bytes should grow: %d %d %d", b1, b2, b3)
	}
	// A fresh session going straight to 1e-6 should cost no more than the
	// incremental path's total (no redundancy for PMGARD-HB).
	rt2, _ := NewRetriever(refactorDataset(t, ds, progressive.PMGARDHB), Config{}, nil)
	res, err := rt2.Retrieve(context.Background(), Request{Targets: relTargets(vtot, 1e-6, ranges)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RetrievedBytes > b3+b3/10 {
		t.Fatalf("direct session (%d) much larger than incremental total (%d)", res.RetrievedBytes, b3)
	}
}

func TestMaskKeepsSqrtEstimatesFinite(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	vtot := []qoi.QoI{ds.QoIs[0]}

	// With the mask, a moderate tolerance must be reachable quickly.
	rt, _ := NewRetriever(vars, Config{}, nil)
	res, err := rt.Retrieve(context.Background(), Request{Targets: relTargets(vtot, 1e-3, ranges)})
	if err != nil {
		t.Fatal(err)
	}
	maskedBytes := res.RetrievedBytes

	// Without the mask the exact-zero nodes force far deeper retrieval
	// (sqrt estimate at near-zero radicand), or exhaustion.
	opt := refactorOptions(progressive.PMGARDHB)
	opt.MaskZeros = false
	vars2, err := RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	rt2, _ := NewRetriever(vars2, Config{}, nil)
	res2, err := rt2.Retrieve(context.Background(), Request{Targets: relTargets(vtot, 1e-3, ranges)})
	if err != nil && !errors.Is(err, ErrExhausted) {
		t.Fatal(err)
	}
	if res2.RetrievedBytes <= maskedBytes {
		t.Errorf("mask should reduce retrieval: masked %d, unmasked %d", maskedBytes, res2.RetrievedBytes)
	}
}

// TestZeroMaskOnlyWhereZeros: MaskZeros gives a field without an exact
// zero no mask at all, and building that nothing allocates nothing; a
// field with zeros gets a mask marking exactly them.
func TestZeroMaskOnlyWhereZeros(t *testing.T) {
	ds := smallGE()
	noZeros := slices.Clone(ds.Fields[0])
	for i, v := range noZeros {
		if v == 0 {
			noZeros[i] = 1
		}
	}
	withZeros := slices.Clone(noZeros)
	zeros := []int{0, 7, 8, len(withZeros) / 3, len(withZeros) - 1}
	for _, i := range zeros {
		withZeros[i] = 0
	}
	vars, err := RefactorVariables([]string{"none", "some"}, [][]float64{noZeros, withZeros}, ds.Dims, refactorOptions(progressive.PMGARDHB))
	if err != nil {
		t.Fatal(err)
	}
	if vars[0].ZeroMask != nil {
		t.Errorf("a field without zeros has a %d-point mask", len(vars[0].ZeroMask))
	}
	if n := testing.AllocsPerRun(5, func() { zeroMask(noZeros) }); n != 0 {
		t.Errorf("masking a field without zeros allocates %v times", n)
	}
	mask := vars[1].ZeroMask
	if len(mask) != len(withZeros) {
		t.Fatalf("mask has %d points for %d values", len(mask), len(withZeros))
	}
	for i, m := range mask {
		if m != slices.Contains(zeros, i) {
			t.Errorf("mask[%d] = %v", i, m)
		}
	}
}

func TestMultiQoIRequestSatisfiesAll(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PSZ3Delta)
	rt, _ := NewRetriever(vars, Config{}, nil)
	// Mixed tolerances: tight on T, loose on PT.
	rels := []float64{1e-3, 1e-6, 1e-4, 1e-3, 1e-2, 1e-5}
	tols := make([]float64, len(rels))
	targets := make([]Target, len(rels))
	for k := range rels {
		tols[k] = rels[k] * ranges[k]
		targets[k] = Target{QoI: ds.QoIs[k], Tolerance: rels[k], Relative: true, Range: ranges[k]}
	}
	res, err := rt.Retrieve(context.Background(), Request{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	actual := ActualQoIErrors(ds.QoIs, ds.Fields, res.Data)
	for k, q := range ds.QoIs {
		if actual[k] > tols[k] {
			t.Errorf("%s: actual %g > tolerance %g", q.Name, actual[k], tols[k])
		}
	}
}

func TestRetrieveValidatesRequest(t *testing.T) {
	ds := smallGE()
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	rt, _ := NewRetriever(vars, Config{}, nil)
	if _, err := rt.Retrieve(context.Background(), Request{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := rt.Retrieve(context.Background(), Request{Targets: []Target{{QoI: ds.QoIs[0]}}}); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := rt.Retrieve(context.Background(), Request{Targets: []Target{{QoI: ds.QoIs[0], Tolerance: 1e-3, Relative: true}}}); err == nil {
		t.Error("relative target without a range accepted")
	}
	badQoI := qoi.QoI{Name: "bad", Expr: qoi.Var{Index: 99}}
	if _, err := rt.Retrieve(context.Background(), Request{Targets: []Target{{QoI: badQoI, Tolerance: 1}}}); err == nil {
		t.Error("out-of-range variable accepted")
	}
}

// TestRetrieveRejectsBeforeMutating: a session over no variables rejects
// every request as bad instead of indexing past its variables, and a
// rejected request leaves a warm session's assigner state and estimate
// memo as the last certified request left them.
func TestRetrieveRejectsBeforeMutating(t *testing.T) {
	constant := []qoi.QoI{{Name: "c", Expr: qoi.Const{C: 1}}}
	empty, err := NewRetriever(nil, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]qoi.QoI{constant, {{Name: "x", Expr: qoi.Var{Index: 0}}}} {
		if _, err := empty.Retrieve(context.Background(), Request{Targets: []Target{{QoI: q[0], Tolerance: 1}}}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s on a session without variables: %v, want ErrBadRequest", q[0].Name, err)
		}
	}

	ds := smallGE()
	rt, err := NewRetriever(refactorDataset(t, ds, progressive.PMGARDHB), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	if _, err := rt.Retrieve(context.Background(), Request{Targets: absTargets(ds.QoIs, 1e-3, ranges)}); err != nil {
		t.Fatal(err)
	}
	eps, memo := slices.Clone(rt.plan.eps), maps.Clone(rt.memo)
	ne := ds.NumElements()
	for name, req := range map[string]Request{
		"constant QoI": {Targets: []Target{{QoI: constant[0], Tolerance: 1e-9, Relative: true, Range: 1}}},
		"bad region": {Targets: []Target{{QoI: ds.QoIs[0], Tolerance: 1e-9, Relative: true, Range: ranges[0],
			Region: Region{Lo: 0, Hi: ne + 1}}}},
	} {
		if _, err := rt.Retrieve(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: %v, want ErrBadRequest", name, err)
		}
		if !slices.Equal(rt.plan.eps, eps) || !maps.Equal(rt.memo, memo) {
			t.Fatalf("%s: the rejected request changed the session", name)
		}
	}
}

// TestUncompilableQoIIsBadRequest: a hand-built power the estimator cannot
// compile is a bad request, refused before the session changes, and the
// session's next request fetches, iterates and certifies exactly as on a
// twin session that never saw it.
func TestUncompilableQoIIsBadRequest(t *testing.T) {
	ds := smallGE()
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	var sessions [2]*Retriever
	for i := range sessions {
		rt, err := NewRetriever(vars, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Retrieve(context.Background(), Request{Targets: absTargets(ds.QoIs, 1e-2, ranges)}); err != nil {
			t.Fatal(err)
		}
		sessions[i] = rt
	}
	rt := sessions[0]
	eps, memo := slices.Clone(rt.plan.eps), maps.Clone(rt.memo)
	for _, n := range []int{65, -3} {
		bad := []qoi.QoI{ds.QoIs[0], {Name: "pow", Expr: qoi.Pow{N: n, X: qoi.Var{Index: qoi.GEP}}}}
		if _, err := rt.Retrieve(context.Background(), Request{Targets: relTargets(bad, 1e-9, []float64{1, 1})}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("x^%d: %v, want ErrBadRequest", n, err)
		}
		if !slices.Equal(rt.plan.eps, eps) || !maps.Equal(rt.memo, memo) {
			t.Fatalf("x^%d: the rejected request changed the session", n)
		}
	}
	req := Request{Targets: absTargets(ds.QoIs, 1e-4, ranges)}
	got, err := rt.Retrieve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sessions[1].Retrieve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameRetrieval(t, got, want)
}

// TestAimTraced: a traced warm request records its aim pass as exactly one
// estimate span of iteration 1 named "aim"; a cold one has nothing held
// to aim with and records none.
func TestAimTraced(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	tr := obs.NewTrace()
	rt, err := NewRetriever(refactorDataset(t, ds, progressive.PMGARDHB), Config{Trace: tr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	aims := func() (n int) {
		for _, sp := range tr.Spans() {
			if sp.Name == "aim" {
				if sp.Cat != obs.CatEstimate || sp.Iter != 1 {
					t.Fatalf("aim span %+v, want an estimate span of iteration 1", sp)
				}
				n++
			}
		}
		return n
	}
	for rung, rel := range []float64{1e-2, 1e-4} {
		if _, err := rt.Retrieve(context.Background(), Request{Targets: absTargets(ds.QoIs, rel, ranges)}); err != nil {
			t.Fatal(err)
		}
		if got := aims(); got != rung {
			t.Fatalf("after rung %d: %d aim spans, want %d", rung, got, rung)
		}
	}
}

func TestNewRetrieverValidates(t *testing.T) {
	ds := smallGE()
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	vars[0].ZeroMask = make([]bool, 3) // wrong length
	if _, err := NewRetriever(vars, Config{}, nil); err == nil {
		t.Error("bad mask length accepted")
	}
}

func TestRefactorVariablesValidates(t *testing.T) {
	if _, err := RefactorVariables([]string{"a"}, [][]float64{{1}, {2}}, []int{1}, RefactorOptions{}); err == nil {
		t.Error("name/field mismatch accepted")
	}
	if _, err := RefactorVariables([]string{"a"}, [][]float64{{1, 2, 3}}, []int{2}, RefactorOptions{}); err == nil {
		t.Error("dims mismatch accepted")
	}
}

func TestS3DMultiplicationQoIs(t *testing.T) {
	ds := datagen.S3D(8, 12, 10, 3)
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	rt, _ := NewRetriever(vars, Config{}, nil)
	tols := make([]float64, 4)
	for k := range tols {
		tols[k] = 1e-5 * ranges[k]
	}
	res, err := rt.Retrieve(context.Background(), Request{Targets: relTargets(ds.QoIs, 1e-5, ranges)})
	if err != nil {
		t.Fatal(err)
	}
	actual := ActualQoIErrors(ds.QoIs, ds.Fields, res.Data)
	for k, q := range ds.QoIs {
		if actual[k] > res.EstErrors[k] || res.EstErrors[k] > tols[k] {
			t.Errorf("%s: actual %g est %g tol %g", q.Name, actual[k], res.EstErrors[k], tols[k])
		}
	}
}

func TestTotalVelocityOn3D(t *testing.T) {
	ds := datagen.Hurricane(6, 16, 16, 5)
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	rt, _ := NewRetriever(vars, Config{}, nil)
	res, err := rt.Retrieve(context.Background(), Request{Targets: relTargets(ds.QoIs, 1e-5, ranges)})
	if err != nil {
		t.Fatal(err)
	}
	actual := ActualQoIErrors(ds.QoIs, ds.Fields, res.Data)
	if actual[0] > res.EstErrors[0] {
		t.Errorf("actual %g > est %g", actual[0], res.EstErrors[0])
	}
}

func TestTightenFactorAblation(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vtot := []qoi.QoI{ds.QoIs[0]}
	for _, c := range []float64{1.1, 1.5, 4} {
		vars := refactorDataset(t, ds, progressive.PMGARDHB)
		rt, _ := NewRetriever(vars, Config{TightenFactor: c}, nil)
		res, err := rt.Retrieve(context.Background(), Request{Targets: relTargets(vtot, 1e-4, ranges)})
		if err != nil {
			t.Fatalf("c=%g: %v", c, err)
		}
		if !res.ToleranceMet {
			t.Errorf("c=%g: tolerance not met", c)
		}
	}
}

func TestRegionOfInterestRetrieval(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vtot := ds.QoIs[0]
	ne := ds.NumElements()
	hot := Region{Lo: 0, Hi: ne / 8}

	// Same QoI requested twice: tight in the hot region, loose elsewhere.
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	rt, _ := NewRetriever(vars, Config{}, nil)
	res, err := rt.Retrieve(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-6, Relative: true, Range: ranges[0], Region: hot},
		{QoI: vtot, Tolerance: 1e-2, Relative: true, Range: ranges[0]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the hot region actually meets the tight tolerance.
	hotOrig := make([][]float64, len(ds.Fields))
	hotRecon := make([][]float64, len(ds.Fields))
	for v := range ds.Fields {
		hotOrig[v] = ds.Fields[v][hot.Lo:hot.Hi]
		if res.Data[v] != nil {
			hotRecon[v] = res.Data[v][hot.Lo:hot.Hi]
		}
	}
	hotErr := ActualQoIErrors([]qoi.QoI{vtot}, hotOrig, hotRecon)
	if hotErr[0] > 1e-6*ranges[0] {
		t.Fatalf("hot region error %g exceeds tight tolerance %g", hotErr[0], 1e-6*ranges[0])
	}
	roiBytes := res.RetrievedBytes

	// A uniformly tight request must cost at least as much as the RoI one.
	vars2 := refactorDataset(t, ds, progressive.PMGARDHB)
	rt2, _ := NewRetriever(vars2, Config{}, nil)
	res2, err := rt2.Retrieve(context.Background(), Request{Targets: relTargets([]qoi.QoI{vtot}, 1e-6, ranges)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RetrievedBytes < roiBytes {
		t.Fatalf("uniform tight request (%d B) cheaper than RoI request (%d B)", res2.RetrievedBytes, roiBytes)
	}
}

func TestRegionValidation(t *testing.T) {
	ds := smallGE()
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	rt, _ := NewRetriever(vars, Config{}, nil)
	for name, bad := range map[string]Region{
		"negative":  {Lo: -1, Hi: 5},
		"inverted":  {Lo: 10, Hi: 5},
		"oversized": {Lo: 0, Hi: ds.NumElements() + 1},
	} {
		req := Request{Targets: []Target{{QoI: ds.QoIs[0], Tolerance: 1, Region: bad}}}
		if _, err := rt.Retrieve(context.Background(), req); err == nil {
			t.Errorf("%s region accepted", name)
		}
	}
}

func TestActualQoIErrorsAndRanges(t *testing.T) {
	orig := [][]float64{{3, 0}, {4, 0}, {0, 0}}
	recon := [][]float64{{3, 0}, {4, 0.1}, {0, 0}}
	qois := []qoi.QoI{qoi.TotalVelocity(0, 1, 2)}
	errs := ActualQoIErrors(qois, orig, recon)
	if math.Abs(errs[0]-0.1) > 1e-12 {
		t.Fatalf("actual error = %g, want 0.1", errs[0])
	}
	ranges := QoIRanges(qois, orig)
	if ranges[0] != 5 {
		t.Fatalf("range = %g, want 5", ranges[0])
	}
}

func TestQoIRangesEmpty(t *testing.T) {
	if out := QoIRanges(nil, nil); out != nil {
		t.Fatal("nil input should give nil")
	}
	if out := ActualQoIErrors(nil, nil, nil); out != nil {
		t.Fatal("nil input should give nil")
	}
}
