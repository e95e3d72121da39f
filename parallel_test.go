package progqoi

// parallel_test.go covers the concurrency surface of the public API: the
// WithWorkers determinism guarantee, the shared wire of concurrent remote
// sessions, and the shared-cache race of concurrent sessions while a
// third session cancels mid-Do (run under -race in CI).

import (
	"context"
	"math"
	"sync"
	"testing"

	"progqoi/internal/datagen"
)

// doVTOT certifies the total-velocity QoI at rel on one fresh session.
func doVTOT(t *testing.T, arch *Archive, rel float64, opts ...OpenOption) *Result {
	t.Helper()
	sess, err := arch.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	res, err := sess.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: rel, Relative: true, Range: qoiRange(t, arch, vtot)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var qoiRangeCache sync.Map

func qoiRange(t *testing.T, arch *Archive, q QoI) float64 {
	t.Helper()
	ds := parallelDataset()
	if v, ok := qoiRangeCache.Load(q.Name); ok {
		return v.(float64)
	}
	r := QoIRanges([]QoI{q}, ds.Fields)[0]
	qoiRangeCache.Store(q.Name, r)
	return r
}

func parallelDataset() *datagen.Dataset { return datagen.GE("GE-parallel", 6, 280, 17) }

func TestWithWorkersBitIdentical(t *testing.T) {
	ds := parallelDataset()
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	want := doVTOT(t, arch, 1e-4, WithWorkers(1))
	got := doVTOT(t, arch, 1e-4, WithWorkers(8))
	if got.RetrievedBytes != want.RetrievedBytes || got.EstErrors[0] != want.EstErrors[0] {
		t.Fatalf("workers=8 certified (%d B, %g), workers=1 (%d B, %g)",
			got.RetrievedBytes, got.EstErrors[0], want.RetrievedBytes, want.EstErrors[0])
	}
	for v := range want.Data {
		if want.Data[v] == nil {
			continue
		}
		for j := range want.Data[v] {
			if math.Float64bits(got.Data[v][j]) != math.Float64bits(want.Data[v][j]) {
				t.Fatalf("var %d point %d: parallel reconstruction differs", v, j)
			}
		}
	}
}

// TestSharedCacheSessionsWithCancelMidDo races two full retrievals over one
// remote archive's shared fragment cache while a third session cancels
// itself mid-Do, extending the PR 2 coalescing tests to the worker pool:
// the survivors must certify results bit-identical to a local session, and
// the canceller must remain resumable.
func TestSharedCacheSessionsWithCancelMidDo(t *testing.T) {
	ds := parallelDataset()
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	want := doVTOT(t, arch, 1e-4)

	hs := serveArchive(t, arch, "ge")
	rarch, err := Open(context.Background(), hs.URL+"/ge")
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	target := Target{QoI: vtot, Tolerance: 1e-4, Relative: true, Range: qoiRange(t, rarch, vtot)}
	// The canceller gets an absolute target with no relative seed: the
	// assigner starts from the default 10% bound and must tighten over
	// several iterations, guaranteeing the cancel strikes mid-retrieval.
	ctarget := Target{QoI: vtot, Tolerance: 1e-5 * qoiRange(t, rarch, vtot)}
	lsess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	wantC, err := lsess.Do(context.Background(), Request{Targets: []Target{ctarget}})
	if err != nil {
		t.Fatal(err)
	}

	results := make([]*Result, 2)
	errs := make([]error, 2)
	var cancelled *Session
	var cancelledErr error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := rarch.Open()
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = sess.Do(context.Background(), Request{Targets: []Target{target}})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := rarch.Open()
		if err != nil {
			cancelledErr = err
			return
		}
		cancelled = sess
		ctx, cancel := context.WithCancel(context.Background())
		_, cancelledErr = sess.Do(ctx, Request{
			Targets: []Target{ctarget},
			// Abort from inside the certify loop: the worker pool and any
			// in-flight batch must unwind cleanly while the other two
			// sessions keep hitting the same cache.
			OnProgress: func(Iteration) { cancel() },
		})
	}()
	wg.Wait()

	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if results[i].RetrievedBytes != want.RetrievedBytes || results[i].EstErrors[0] != want.EstErrors[0] {
			t.Fatalf("session %d certified (%d B, %g), local (%d B, %g)",
				i, results[i].RetrievedBytes, results[i].EstErrors[0], want.RetrievedBytes, want.EstErrors[0])
		}
		for j := range want.Data[0] {
			if math.Float64bits(results[i].Data[0][j]) != math.Float64bits(want.Data[0][j]) {
				t.Fatalf("session %d point %d: reconstruction differs from local", i, j)
			}
		}
	}
	if cancelledErr == nil {
		t.Fatal("cancelling session reported no error")
	}
	// The canceller's session stays valid: finishing the request certifies
	// the same result without re-fetching what it already holds.
	res, err := cancelled.Do(context.Background(), Request{Targets: []Target{ctarget}})
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if res.RetrievedBytes != wantC.RetrievedBytes || res.EstErrors[0] != wantC.EstErrors[0] {
		t.Fatalf("resumed session certified (%d B, %g), local (%d B, %g)",
			res.RetrievedBytes, res.EstErrors[0], wantC.RetrievedBytes, wantC.EstErrors[0])
	}
}

// TestConcurrentSessionsShareWire: sessions of one remote archive share
// its fragment cache and coalesce duplicate in-flight fetches, so every
// fragment crosses the wire at most once and N concurrent identical
// sessions cost the wire exactly what one session retrieves.
func TestConcurrentSessionsShareWire(t *testing.T) {
	ds := parallelDataset()
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	hs := serveArchive(t, arch, "ge")
	rarch, err := Open(context.Background(), hs.URL+"/ge")
	if err != nil {
		t.Fatal(err)
	}
	defer rarch.Close()
	const sessions = 4
	var wg sync.WaitGroup
	retrieved := make([]int64, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := rarch.Open()
			if err != nil {
				errs[i] = err
				return
			}
			res, err := sess.Do(context.Background(), Request{Targets: []Target{{QoI: TotalVelocity(0, 1, 2), Tolerance: 5e-3}}})
			if err != nil {
				errs[i] = err
				return
			}
			retrieved[i] = res.RetrievedBytes
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i := 1; i < sessions; i++ {
		if retrieved[i] != retrieved[0] {
			t.Fatalf("sessions disagree on RetrievedBytes: %v", retrieved)
		}
	}
	st := rarch.RemoteStats()
	if st.WireBytes != retrieved[0] {
		t.Fatalf("wire bytes %d for %d sessions, want %d (one session's worth)",
			st.WireBytes, sessions, retrieved[0])
	}
	if st.CacheHits+st.Coalesced == 0 {
		t.Fatal("no sharing observed across concurrent sessions")
	}
}
