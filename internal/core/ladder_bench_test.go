package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
)

// geLadder returns one consumer op of the repository benchmark's
// do-local-ge workload, in process: a new session over GE(200, 320)
// certifying all six GE QoIs at relative 1e-1 … 1e-5 in turn. It also
// returns the raw bytes of the five fields the session reads.
func geLadder(tb testing.TB) (op func(), raw int) {
	tb.Helper()
	ds, vars := benchGE(tb)
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	op = func() {
		rt, err := NewRetriever(vars, Config{}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		for _, rel := range retrieveLadder[:5] {
			if _, err := rt.Retrieve(context.Background(), Request{Targets: absTargets(ds.QoIs, rel, ranges)}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return op, 8 * len(ds.Fields) * ds.NumElements()
}

// benchGE is the do-local-ge workload's dataset, GE(200, 320), refactored
// with PMGARD-HB and zero masks.
func benchGE(tb testing.TB) (*datagen.Dataset, []*Variable) {
	tb.Helper()
	ds := datagen.GE("ge", 200, 320, 1)
	vars, err := RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ds, vars
}

// BenchmarkEstimateAllGE times one estimateAll pass of all six GE QoIs over
// benchGE's whole field, on the data and at the bounds a session holds
// after certifying them at relative 1e-3: the block loads, Program.Eval
// and the max reduction.
func BenchmarkEstimateAllGE(b *testing.B) {
	ds, vars := benchGE(b)
	rt, err := NewRetriever(vars, Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Targets: absTargets(ds.QoIs, 1e-3, QoIRanges(ds.QoIs, ds.Fields))}
	if _, err := rt.Retrieve(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	q, err := rt.newRequest(req)
	if err != nil {
		b.Fatal(err)
	}
	todo := everyTarget(len(req.Targets))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.estimateAll(q, rt.achieved, todo)
	}
}

// BenchmarkGELadder runs geLadder's op.
func BenchmarkGELadder(b *testing.B) {
	op, _ := geLadder(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestSessionAllocContract bounds what a new session allocates over
// geLadder's op, as a multiple of the raw bytes of the fields it reads:
// the fewest bytes any of five ops allocates. A session holds one
// reconstruction per variable (1×) and its decoders' uint32 magnitudes
// (0.5×); estimator scratch and fragment bitmaps make up the rest. This
// reads 2.18× with readers that recompose and mask in place, and 4.75× at
// their parent, whose readers also held a coefficient shell, uint64
// magnitudes and a group buffer, beside a masked copy per masked variable.
func TestSessionAllocContract(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under -race")
	}
	const maxRawMultiple = 3
	op, raw := geLadder(t)
	op() // warm-up
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if got := float64(least) / float64(raw); got > maxRawMultiple {
		t.Errorf("a session allocates %d B over the ladder, %.2f× the %d raw bytes (bound %d×)", least, got, raw, maxRawMultiple)
	} else {
		t.Logf("a session allocates %d B over the ladder, %.2f× the %d raw bytes", least, got, raw)
	}
}
