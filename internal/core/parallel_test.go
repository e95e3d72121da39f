package core

// parallel_test.go pins the determinism contract of the retrieval compute
// pool: any Workers setting must certify identical errors, fetch identical
// bytes, and reconstruct bit-identical data, because fragment decode,
// per-variable advance, and per-QoI estimation all merge deterministically.

import (
	"context"
	"math"
	"sync"
	"testing"

	"progqoi/internal/qoi"
)

func retrieveWith(t *testing.T, workers int, req Request) *Result {
	t.Helper()
	ds := smallGE()
	vars, err := RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, RefactorOptions{MaskZeros: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetriever(vars, Config{Workers: workers}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Retrieve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRetrieveWorkersEquivalence(t *testing.T) {
	ds := smallGE()
	qois := []qoi.QoI{ds.QoIs[0], ds.QoIs[1]}
	ranges := QoIRanges(qois, ds.Fields)
	ne := len(ds.Fields[0])
	// One whole-domain target, one region-restricted target: the (QoI,
	// chunk) estimation grid must stay deterministic for both.
	req := Request{Targets: []Target{
		{QoI: qois[0], Tolerance: 1e-3, Relative: true, Range: ranges[0]},
		{QoI: qois[1], Tolerance: 1e-4, Relative: true, Range: ranges[1], Region: Region{Lo: ne / 4, Hi: ne / 2}},
	}}
	want := retrieveWith(t, 1, req)
	for _, workers := range []int{2, 4, 16} {
		got := retrieveWith(t, workers, req)
		if !got.ToleranceMet {
			t.Fatalf("workers=%d: tolerance not met", workers)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("workers=%d: %d iterations, want %d", workers, got.Iterations, want.Iterations)
		}
		if got.RetrievedBytes != want.RetrievedBytes {
			t.Fatalf("workers=%d: retrieved %d bytes, want %d", workers, got.RetrievedBytes, want.RetrievedBytes)
		}
		for k := range qois {
			if got.EstErrors[k] != want.EstErrors[k] {
				t.Fatalf("workers=%d QoI %d: certified %g, want %g", workers, k, got.EstErrors[k], want.EstErrors[k])
			}
		}
		for v := range want.Data {
			for j := range want.Data[v] {
				if math.Float64bits(got.Data[v][j]) != math.Float64bits(want.Data[v][j]) {
					t.Fatalf("workers=%d var %d point %d: reconstruction differs", workers, v, j)
				}
			}
		}
	}
}

// TestFetchObserverSerialized proves the shared fetch observer is never
// invoked concurrently even though variables advance in parallel (run under
// -race this also catches unsynchronized observer state).
func TestFetchObserverSerialized(t *testing.T) {
	ds := smallGE()
	vars, err := RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, RefactorOptions{MaskZeros: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inObserver := false
	var calls int
	var bytes int64
	rt, err := NewRetriever(vars, Config{Workers: 8}, func(i int, size int64) {
		mu.Lock()
		if inObserver {
			mu.Unlock()
			t.Error("observer reentered concurrently")
			return
		}
		inObserver = true
		mu.Unlock()
		calls++
		bytes += size
		mu.Lock()
		inObserver = false
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	qois := []qoi.QoI{ds.QoIs[0]}
	ranges := QoIRanges(qois, ds.Fields)
	res, err := rt.Retrieve(context.Background(), Request{Targets: relTargets(qois, 1e-3, ranges)})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || bytes != res.RetrievedBytes {
		t.Fatalf("observer saw %d calls / %d bytes, session retrieved %d", calls, bytes, res.RetrievedBytes)
	}
}
