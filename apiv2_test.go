package progqoi

// apiv2_test.go covers the composable retrieval API: Session.Do with mixed
// absolute/relative/region targets, end-to-end context cancellation and
// deadline expiry (local and remote), session resumability after a
// cancelled retrieval, progress streaming, and the ErrBadRequest contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"progqoi/internal/datagen"
	"progqoi/internal/server"
)

// TestDoMixedTargetsLocalAndRemote is the acceptance scenario: one QoI
// under a relative tolerance over a region, another under an absolute
// tolerance over the whole domain, certified by a single Do call — with
// identical results on local and remote archives.
func TestDoMixedTargetsLocalAndRemote(t *testing.T) {
	ds := datagen.GE("GE-mixed", 4, 300, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	temp, err := ParseQoI("T", "Pressure/(287.1*Density)", ds.FieldNames)
	if err != nil {
		t.Fatal(err)
	}
	ranges := QoIRanges([]QoI{vtot}, ds.Fields)
	hot := Region{Lo: 100, Hi: 400}
	tempTol := 2e-4 * QoIRanges([]QoI{temp}, ds.Fields)[0]
	req := Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-5, Relative: true, Range: ranges[0], Region: hot},
		{QoI: temp, Tolerance: tempTol},
	}}

	run := func(a *Archive) *Result {
		t.Helper()
		sess, err := a.Open()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ToleranceMet {
			t.Fatal("mixed request not certified")
		}
		return res
	}

	local := run(arch)
	hs := serveArchive(t, arch, "ge")
	rarch, err := Open(context.Background(), hs.URL+"/ge")
	if err != nil {
		t.Fatal(err)
	}
	remote := run(rarch)

	// The certified errors respect each target's own convention.
	if !(local.EstErrors[0] <= 1e-5*ranges[0]) {
		t.Fatalf("region target certified %g > rel tolerance %g", local.EstErrors[0], 1e-5*ranges[0])
	}
	if !(local.EstErrors[1] <= tempTol) {
		t.Fatalf("absolute target certified %g > %g", local.EstErrors[1], tempTol)
	}
	// Ground truth inside the region must obey the certified bound.
	hotOrig := make([][]float64, len(ds.Fields))
	hotRecon := make([][]float64, len(ds.Fields))
	for v := range ds.Fields {
		hotOrig[v] = ds.Fields[v][hot.Lo:hot.Hi]
		if local.Data[v] != nil {
			hotRecon[v] = local.Data[v][hot.Lo:hot.Hi]
		}
	}
	if e := ActualQoIErrors([]QoI{vtot}, hotOrig, hotRecon); e[0] > local.EstErrors[0] {
		t.Fatalf("region ground-truth error %g exceeds certified %g", e[0], local.EstErrors[0])
	}

	// Local and remote agree bit for bit.
	for k := range req.Targets {
		if local.EstErrors[k] != remote.EstErrors[k] {
			t.Fatalf("target %d: certified %g (local) != %g (remote)", k, local.EstErrors[k], remote.EstErrors[k])
		}
	}
	if local.RetrievedBytes != remote.RetrievedBytes {
		t.Fatalf("retrieved %d (local) != %d (remote)", local.RetrievedBytes, remote.RetrievedBytes)
	}
	for v := range local.Data {
		if (local.Data[v] == nil) != (remote.Data[v] == nil) {
			t.Fatalf("var %d: nil-ness differs", v)
		}
		for j := range local.Data[v] {
			if math.Float64bits(local.Data[v][j]) != math.Float64bits(remote.Data[v][j]) {
				t.Fatalf("var %d point %d: %g (local) != %g (remote)", v, j, local.Data[v][j], remote.Data[v][j])
			}
		}
	}
}

// batchRecorder counts batched fragment requests and records every
// requested (var, index) pair, optionally blocking one designated batch
// until released.
type batchRecorder struct {
	mu       sync.Mutex
	requests map[string]int // "var/idx" -> times requested
	calls    int
	blockAt  int           // 1-based batch call to block (0 = never)
	blocked  chan struct{} // closed when the designated batch arrives
	release  chan struct{} // closing lets the blocked batch proceed
}

func newBatchRecorder() *batchRecorder {
	return &batchRecorder{
		requests: map[string]int{},
		blocked:  make(chan struct{}),
		release:  make(chan struct{}),
	}
}

func (br *batchRecorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body)
			r.Body.Close() //nolint:errcheck
			var breq server.BatchRequest
			if err := json.Unmarshal(body, &breq); err == nil {
				br.mu.Lock()
				br.calls++
				call := br.calls
				for _, w := range breq.Wants {
					for _, fi := range w.Indices {
						br.requests[fmt.Sprintf("%s/%d", w.Var, fi)]++
					}
				}
				br.mu.Unlock()
				if br.blockAt > 0 && call == br.blockAt {
					close(br.blocked)
					<-br.release
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		next.ServeHTTP(w, r)
	})
}

func (br *batchRecorder) snapshot() (calls int, counts map[string]int) {
	br.mu.Lock()
	defer br.mu.Unlock()
	counts = map[string]int{}
	for k, v := range br.requests {
		counts[k] = v
	}
	return br.calls, counts
}

// TestDoCancelRemoteMidIteration cancels a remote Do while its batched
// fragment fetch is in flight, then proves the session is still usable and
// that the follow-up Do does not re-fetch fragments already held.
func TestDoCancelRemoteMidIteration(t *testing.T) {
	ds := datagen.GE("GE-cancel", 4, 256, 7)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	ranges := QoIRanges([]QoI{vtot}, ds.Fields)

	br := newBatchRecorder()
	st := newMemArchiveServer(t, arch, "ge", br.middleware)
	rarch, err := Open(context.Background(), st.URL+"/ge")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := rarch.Open()
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a loose retrieval completes and seeds the session.
	res1, err := sess.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-2, Relative: true, Range: ranges[0]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.ToleranceMet {
		t.Fatal("loose request not certified")
	}
	callsAfter1, _ := br.snapshot()
	if callsAfter1 == 0 {
		t.Fatal("no batched fetches observed")
	}

	// Phase 2: a tight retrieval whose first new batch blocks on the
	// server; cancel while it is in flight.
	br.mu.Lock()
	br.blockAt = callsAfter1 + 1
	br.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res2 *Result
	var err2 error
	go func() {
		defer close(done)
		res2, err2 = sess.Do(ctx, Request{Targets: []Target{
			{QoI: vtot, Tolerance: 1e-7, Relative: true, Range: ranges[0]},
		}})
	}()
	select {
	case <-br.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("tight retrieval never issued a new batch")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Do did not return promptly")
	}
	close(br.release) // let the parked handler finish
	if !errors.Is(err2, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err2)
	}
	if res2 == nil {
		t.Fatal("cancelled Do returned no best-effort result")
	}
	if res2.ToleranceMet {
		t.Fatal("cancelled Do claims certification")
	}

	// Phase 3: the same session resumes with a fresh context and certifies.
	res3, err := sess.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-7, Relative: true, Range: ranges[0]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res3.ToleranceMet {
		t.Fatal("resumed request not certified")
	}
	if res3.RetrievedBytes <= res1.RetrievedBytes {
		t.Fatal("tight request retrieved nothing beyond the loose one")
	}

	// No fragment ingested before the cancellation crossed the wire twice:
	// wire payload bytes stay below two sessions' worth, and every byte the
	// session logically holds crossed at most once plus the aborted batch.
	ws := rarch.RemoteStats()
	if ws.WireBytes >= 2*res3.RetrievedBytes {
		t.Fatalf("wire bytes %d suggest wholesale re-fetching (logical %d)", ws.WireBytes, res3.RetrievedBytes)
	}

	// Strong check via the recorder: no (var, fragment) pair was requested
	// more than twice, and pairs served before the cancel exactly once.
	_, counts := br.snapshot()
	for key, n := range counts {
		if n > 2 {
			t.Fatalf("fragment %s requested %d times", key, n)
		}
	}

	// The reconstruction after resume matches a never-cancelled session.
	ref, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-7, Relative: true, Range: ranges[0]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want.RetrievedBytes != res3.RetrievedBytes {
		t.Fatalf("resumed session retrieved %d bytes, pristine session %d", res3.RetrievedBytes, want.RetrievedBytes)
	}
	for v := range want.Data {
		if (want.Data[v] == nil) != (res3.Data[v] == nil) {
			t.Fatalf("var %d nil-ness differs after resume", v)
		}
		for j := range want.Data[v] {
			if math.Float64bits(want.Data[v][j]) != math.Float64bits(res3.Data[v][j]) {
				t.Fatalf("var %d point %d differs after resume", v, j)
			}
		}
	}
}

// newMemArchiveServer is serveArchive with a middleware hook.
func newMemArchiveServer(t *testing.T, arch *Archive, name string, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	hsrv := serveArchiveHandler(t, arch, name, server.Options{})
	var h http.Handler = hsrv
	if mw != nil {
		h = mw(hsrv)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs
}

// TestDoDeadlineLocalArchive proves deadline expiry is honored on a purely
// local archive and leaves the session usable.
func TestDoDeadlineLocalArchive(t *testing.T) {
	names, fields, dims := demoFields(2000)
	arch, err := Refactor(names, fields, dims)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	res, err := sess.Do(ctx, Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-4}}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if res == nil || res.ToleranceMet {
		t.Fatal("expired deadline must yield a best-effort, uncertified result")
	}

	// Session still usable after the expiry.
	res2, err := sess.Do(context.Background(), Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-4}}})
	if err != nil || !res2.ToleranceMet {
		t.Fatalf("session unusable after deadline expiry: %v", err)
	}
}

// TestDoCancelFromOnProgress stops a local retrieval from inside the
// progress callback and keeps the best-effort result.
func TestDoCancelFromOnProgress(t *testing.T) {
	names, fields, dims := demoFields(3000)
	arch, err := Refactor(names, fields, dims)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen []Iteration
	res, err := sess.Do(ctx, Request{
		Targets: []Target{{QoI: vtot, Tolerance: 1e-12}},
		OnProgress: func(it Iteration) {
			seen = append(seen, it)
			if it.N >= 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if res == nil || res.Iterations < 2 {
		t.Fatalf("best-effort result missing or too early: %+v", res)
	}
	if len(seen) < 2 {
		t.Fatalf("progress callback fired %d times", len(seen))
	}
	for i, it := range seen {
		if it.N != i+1 {
			t.Fatalf("iteration %d reported N=%d", i, it.N)
		}
		if i > 0 && it.RetrievedBytes < seen[i-1].RetrievedBytes {
			t.Fatal("RetrievedBytes not monotone across iterations")
		}
	}
}

// TestDoProgressStreaming checks the full progress stream of a successful
// retrieval, including wire-byte reporting on remote sessions.
func TestDoProgressStreaming(t *testing.T) {
	ds := datagen.GE("GE-progress", 4, 200, 3)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	hs := serveArchive(t, arch, "ge")
	rarch, err := Open(context.Background(), hs.URL+"/ge")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := rarch.Open()
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	ranges := QoIRanges([]QoI{vtot}, ds.Fields)
	var seen []Iteration
	res, err := sess.Do(context.Background(), Request{
		Targets:    []Target{{QoI: vtot, Tolerance: 1e-4, Relative: true, Range: ranges[0]}},
		OnProgress: func(it Iteration) { seen = append(seen, it) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Iterations {
		t.Fatalf("%d progress reports for %d iterations", len(seen), res.Iterations)
	}
	last := seen[len(seen)-1]
	if !last.ToleranceMet {
		t.Fatal("final progress report not marked ToleranceMet")
	}
	if last.RetrievedBytes != res.RetrievedBytes {
		t.Fatalf("final progress bytes %d != result %d", last.RetrievedBytes, res.RetrievedBytes)
	}
	if last.WireBytes == 0 {
		t.Fatal("remote session reported no wire bytes in progress")
	}
	if last.EstErrors[0] > 1e-4*ranges[0] {
		t.Fatalf("final progress estimate %g above tolerance", last.EstErrors[0])
	}
}

// TestErrBadRequest exercises the typed validation sentinel across every
// malformed request Do rejects.
func TestErrBadRequest(t *testing.T) {
	names, fields, dims := demoFields(500)
	arch, err := Refactor(names, fields, dims)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	ctx := context.Background()
	cases := map[string]func() error{
		"no targets": func() error {
			_, err := sess.Do(ctx, Request{})
			return err
		},
		"zero tolerance": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{QoI: vtot}}})
			return err
		},
		"negative tolerance": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{QoI: vtot, Tolerance: -1}}})
			return err
		},
		"relative without range": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-3, Relative: true}}})
			return err
		},
		"relative tolerance × range underflows to 0": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-200, Relative: true, Range: 1e-200}}})
			return err
		},
		"relative target with a NaN range": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-3, Relative: true, Range: math.NaN()}}})
			return err
		},
		"NaN absolute tolerance": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{QoI: vtot, Tolerance: math.NaN()}}})
			return err
		},
		"inverted region": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{
				{QoI: vtot, Tolerance: 1e-3, Region: Region{Lo: 400, Hi: 100}}}})
			return err
		},
		"region past end": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{
				{QoI: vtot, Tolerance: 1e-3, Region: Region{Lo: 0, Hi: 501}}}})
			return err
		},
		"nil QoI expression": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{Tolerance: 1e-3}}})
			return err
		},
		"negative variable index": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{QoI: TotalVelocity(-1, 1, 2), Tolerance: 1e-3}}})
			return err
		},
		"type embedding a nil expression": func() error {
			_, err := sess.Do(ctx, Request{Targets: []Target{{QoI: QoI{Name: "wrapped", Expr: struct{ Expr }{}}, Tolerance: 1e-3}}})
			return err
		},
	}
	for name, fn := range cases {
		if err := fn(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: want ErrBadRequest, got %v", name, err)
		}
	}
}

// TestDoOnArchiveWithoutFields: Refactor accepts an empty field list, and
// Do on that archive rejects every request as bad instead of panicking.
func TestDoOnArchiveWithoutFields(t *testing.T) {
	arch, err := Refactor(nil, nil, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	constant, err := ParseQoI("one", "1", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []QoI{TotalVelocity(0, 1, 2), constant} {
		_, err := sess.Do(context.Background(), Request{Targets: []Target{{QoI: q, Tolerance: 1e-3}}})
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: want ErrBadRequest, got %v", q.Name, err)
		}
	}
}
