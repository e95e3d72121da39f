package progqoi

// parallel_test.go covers the PR's concurrency surface at the public API:
// the WithWorkers determinism guarantee, the read-ahead fetch/decode
// pipeline, and the shared-cache race of concurrent sessions while a third
// session cancels mid-Do (run under -race in CI).

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

func TestReadAheadPipeline(t *testing.T) {
	ds := parallelDataset()
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	want := doVTOT(t, arch, 1e-4)

	hs := serveArchive(t, arch, "ge")
	rarch, err := Open(context.Background(), hs.URL+"/ge", WithReadAhead(4))
	if err != nil {
		t.Fatal(err)
	}
	got := doVTOT(t, rarch, 1e-4)
	if got.RetrievedBytes != want.RetrievedBytes || got.EstErrors[0] != want.EstErrors[0] {
		t.Fatalf("read-ahead session certified (%d B, %g), local (%d B, %g)",
			got.RetrievedBytes, got.EstErrors[0], want.RetrievedBytes, want.EstErrors[0])
	}
	for j := range want.Data[0] {
		if math.Float64bits(got.Data[0][j]) != math.Float64bits(want.Data[0][j]) {
			t.Fatalf("point %d: read-ahead reconstruction differs", j)
		}
	}
	rarch.WaitReadAhead()
	st := rarch.RemoteStats()
	if st.Speculated == 0 {
		t.Fatal("pipeline never speculated: read-ahead is not overlapping fetch with decode")
	}
	// Speculation may over-fetch (that is its price) but never under-counts:
	// the wire carried at least the logical bytes, and everything speculated
	// landed in the shared cache for later sessions.
	if st.WireBytes < want.RetrievedBytes {
		t.Fatalf("wire bytes %d below logical %d", st.WireBytes, want.RetrievedBytes)
	}
	// A tighter follow-up on the same session consumes speculated fragments
	// from the cache instead of the wire.
	before := rarch.RemoteStats()
	_ = doVTOT(t, rarch, 1e-5)
	rarch.WaitReadAhead()
	after := rarch.RemoteStats()
	if after.CacheHits <= before.CacheHits {
		t.Fatal("tighter retrieval hit the cache zero times despite read-ahead")
	}
}
