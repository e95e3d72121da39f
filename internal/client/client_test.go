package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/encoding"
	"progqoi/internal/par"
	"progqoi/internal/progressive"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

func testVars(t *testing.T) []*core.Variable {
	t.Helper()
	ds := datagen.GE("GE-cli", 4, 128, 11)
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vars
}

// serviceFor serves the given variables as dataset "ge" through an
// optional middleware.
func serviceFor(t *testing.T, vars []*core.Variable, middleware func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(context.Background(), st, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = srv
	if middleware != nil {
		h = middleware(srv)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs
}

// testService serves one dataset "ge" through an optional middleware.
func testService(t *testing.T, middleware func(http.Handler) http.Handler) (*httptest.Server, []*core.Variable) {
	t.Helper()
	vars := testVars(t)
	return serviceFor(t, vars, middleware), vars
}

// fakeClock is a retry.Clock the tests drive: time moves only when a
// test advances it or a wait ends, and every wait ends at once and is
// recorded, so backoff and Retry-After cost no wall time.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	waits []time.Duration
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.waits = append(f.waits, d)
	f.now = f.now.Add(d)
	ch := make(chan time.Time, 1)
	ch <- f.now
	return ch
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// recorded returns the waits so far.
func (f *fakeClock) recorded() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.waits...)
}

// fastOptions runs a client on its own fake clock; opt.clock.(*fakeClock)
// reaches it.
func fastOptions() Options {
	return Options{MaxRetries: 3, clock: &fakeClock{}}
}

// checkCounters pins the retry and failover accounting of one test's
// client exactly.
func checkCounters(t *testing.T, st Stats, retryPasses, failovers, rateLimited, wireRequests int64) {
	t.Helper()
	if st.RetryPasses != retryPasses || st.Failovers != failovers ||
		st.RateLimited != rateLimited || st.WireRequests != wireRequests {
		t.Fatalf("RetryPasses/Failovers/RateLimited/WireRequests = %d/%d/%d/%d, want %d/%d/%d/%d",
			st.RetryPasses, st.Failovers, st.RateLimited, st.WireRequests,
			retryPasses, failovers, rateLimited, wireRequests)
	}
}

func TestRetryOn5xxThenSuccess(t *testing.T) {
	var failures atomic.Int64
	failures.Store(2)
	var attempts atomic.Int64
	hs, vars := testService(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/frags") {
				attempts.Add(1)
				if failures.Add(-1) >= 0 {
					http.Error(w, "transient", http.StatusServiceUnavailable)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	got, err := collect(context.Background(), d, par.New(0), [][]int{{0}})
	if err != nil {
		t.Fatalf("fragment after transient 5xx: %v", err)
	}
	if string(got[vars[0].Name][0]) != string(vars[0].Ref.Fragments[0]) {
		t.Fatal("payload mismatch")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3 (2 failures + 1 success)", got)
	}
	// The index and meta GETs plus three batch POSTs; each failed POST
	// costs one retry pass on a single endpoint.
	checkCounters(t, c.Stats(), 2, 0, 0, 5)
}

func TestRetryExhaustion(t *testing.T) {
	var attempts atomic.Int64
	hs, _ := testService(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/frags") {
				attempts.Add(1)
				http.Error(w, "down", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	if _, err := collect(context.Background(), d, par.New(0), [][]int{{0}}); err == nil {
		t.Fatal("persistent 5xx did not fail")
	} else if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("error %v does not report retry exhaustion", err)
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("%d attempts, want 4 (1 + 3 retries)", got)
	}
	checkCounters(t, c.Stats(), 3, 0, 0, 6)
}

func TestNoRetryOn404(t *testing.T) {
	hs, _ := testService(t, nil)
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Dataset(context.Background(), "nosuch")
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != 404 {
		t.Fatalf("want HTTPError 404, got %v", err)
	}
	if got := c.Stats().WireRequests; got != 1 {
		t.Fatalf("404 issued %d requests, want 1 (no retry)", got)
	}
}

func TestTruncatedBodyRetriesThenFails(t *testing.T) {
	var attempts atomic.Int64
	hs, _ := testService(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/frags") {
				attempts.Add(1)
				// Promise more bytes than we send: the client sees an
				// unexpected EOF mid-body.
				w.Header().Set("Content-Length", "4096")
				w.Write([]byte("short")) //nolint:errcheck
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	if _, err := collect(context.Background(), d, par.New(0), [][]int{{0}}); err == nil {
		t.Fatal("truncated body did not fail")
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("%d attempts, want 4 (truncation retried)", got)
	}
	checkCounters(t, c.Stats(), 3, 0, 0, 6)
}

func TestCorruptBatchDetected(t *testing.T) {
	vars := testVars(t)
	hs := serviceFor(t, vars, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/frags") {
				blob := server.EncodeBatch([]server.BatchFragment{{Var: vars[0].Name, Index: 0, Payload: []byte("xx")}})
				blob[len(blob)/2] ^= 0x20
				w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
				w.Write(blob) //nolint:errcheck
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	_, err = collect(context.Background(), d, par.New(0), [][]int{{0}})
	if !errors.Is(err, encoding.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for corrupted batch, got %v", err)
	}
}

func TestShortFragmentAgainstIndexDetected(t *testing.T) {
	vars := testVars(t)
	hs := serviceFor(t, vars, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/frags") {
				// A well-formed batch whose payload is shorter than the
				// index-declared fragment size: only the size cross-check
				// can catch it.
				blob := server.EncodeBatch([]server.BatchFragment{{Var: vars[0].Name, Index: 0, Payload: []byte("tiny")}})
				w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
				w.Write(blob) //nolint:errcheck
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	_, err = collect(context.Background(), d, par.New(0), [][]int{{0}})
	if !errors.Is(err, encoding.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for short fragment, got %v", err)
	}
}

// TestFetchRepeatedIndexOnce: a fragment listed more than once in
// want[v] is asked for once on the wire and installed once, and never
// waits on its own fetch; on the next call it is one cache hit.
func TestFetchRepeatedIndexOnce(t *testing.T) {
	var bodies []server.BatchRequest
	var mu sync.Mutex
	hs, vars := testService(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/frags") {
				var req server.BatchRequest
				body, _ := io.ReadAll(r.Body)
				if err := json.Unmarshal(body, &req); err != nil {
					t.Error(err)
				}
				mu.Lock()
				bodies = append(bodies, req)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			next.ServeHTTP(w, r)
		})
	})
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for call, wantHits := range []int64{0, 2} {
		installs := map[int]int{}
		err := d.Fetch(ctx, par.New(0), [][]int{{1, 0, 1, 1, 0}}, func(v, fi int, payload []byte) {
			if v != 0 || string(payload) != string(vars[0].Ref.Fragments[fi]) {
				t.Errorf("call %d: install %d/%d carries the wrong payload", call, v, fi)
			}
			installs[fi]++
		})
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if len(installs) != 2 || installs[0] != 1 || installs[1] != 1 {
			t.Fatalf("call %d: installs per fragment = %v, want one each of 0 and 1", call, installs)
		}
		st := c.Stats()
		if st.CacheHits != wantHits || st.Coalesced != 0 || st.FragmentsFetched != 2 {
			t.Fatalf("call %d: CacheHits/Coalesced/FragmentsFetched = %d/%d/%d, want %d/0/2",
				call, st.CacheHits, st.Coalesced, st.FragmentsFetched, wantHits)
		}
	}
	if len(bodies) != 1 || len(bodies[0].Wants) != 1 || fmt.Sprint(bodies[0].Wants[0].Indices) != "[0 1]" {
		t.Fatalf("batch bodies = %+v, want one asking for %s [0 1]", bodies, vars[0].Name)
	}
}

// TestFetchOutOfRangeRefusedLocally: a variable or fragment the index
// does not have fails Fetch before any request and installs nothing.
func TestFetchOutOfRangeRefusedLocally(t *testing.T) {
	hs, vars := testService(t, nil)
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	n := len(vars[0].Ref.Fragments)
	before := c.Stats().WireRequests
	for _, want := range [][][]int{
		append(make([][]int, len(vars)), []int{0}),
		{{0, -1}},
		{{0, n}},
	} {
		err := d.Fetch(context.Background(), par.New(0), want, func(v, fi int, _ []byte) {
			t.Errorf("want %v: installed %d/%d", want, v, fi)
		})
		if err == nil {
			t.Fatalf("want %v: no error", want)
		}
	}
	if got := c.Stats().WireRequests - before; got != 0 {
		t.Fatalf("refused fetches issued %d requests", got)
	}
}

// TestBatchAnswerOrderIsFree: the response to a batch may list its
// fragments in any order (FORMATS.md), and every payload still reaches the
// fragment it belongs to; a response that repeats one fragment in place
// of another is corruption.
func TestBatchAnswerOrderIsFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mangle  func([]server.BatchFragment)
		corrupt bool
	}{
		{"reversed", slices.Reverse[[]server.BatchFragment], false},
		{"repeated", func(f []server.BatchFragment) { f[1] = f[0] }, true},
	} {
		hs, vars := testService(t, func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !strings.HasSuffix(r.URL.Path, "/frags") {
					next.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				next.ServeHTTP(rec, r)
				frags, err := server.DecodeBatch(rec.Body.Bytes())
				if err != nil {
					t.Error(err)
				}
				tc.mangle(frags)
				w.Write(server.EncodeBatch(frags)) //nolint:errcheck
			})
		})
		c, err := New(hs.URL, fastOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := collect(context.Background(), openGE(t, c), par.New(0), allWants(vars))
		if tc.corrupt {
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("%s: want ErrCorrupt, got %v", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkPayloads(t, vars, got)
	}
}

func TestCacheEvictionUnderBytePressure(t *testing.T) {
	hs, vars := testService(t, nil)
	sizes := make([]int64, 4)
	for i := range sizes {
		sizes[i] = int64(len(vars[0].Ref.Fragments[i]))
	}
	opt := fastOptions()
	opt.CacheBytes = sizes[2] + sizes[3] // room for roughly two fragments
	c, err := New(hs.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	for i := 0; i < 4; i++ {
		if _, err := collect(context.Background(), d, par.New(0), [][]int{{i}}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.CacheEvictions == 0 {
		t.Fatalf("no evictions under byte pressure: %+v", st)
	}
	if st.CacheBytes > opt.CacheBytes {
		t.Fatalf("cache %d bytes exceeds cap %d", st.CacheBytes, opt.CacheBytes)
	}
	// Fragment 0 was evicted long ago: re-fetching it pays the wire again.
	wire := c.Stats().WireBytes
	if _, err := collect(context.Background(), d, par.New(0), [][]int{{0}}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().WireBytes == wire {
		t.Fatal("evicted fragment came back without wire bytes")
	}
}

func TestCoalescingConcurrentFetches(t *testing.T) {
	var batchCalls atomic.Int64
	gate := make(chan struct{})
	hs, vars := testService(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/frags") {
				batchCalls.Add(1)
				<-gate // hold the first fetch open until the second session queues on it
			}
			next.ServeHTTP(w, r)
		})
	})
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	want := [][]int{{0, 1}}
	var wg sync.WaitGroup
	results := make([]map[string]map[int][]byte, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = collect(context.Background(), d, par.New(0), want)
		}(i)
	}
	// Wait until one goroutine owns the in-flight fetch and the other has
	// coalesced onto it, then release the server.
	deadline := time.After(5 * time.Second)
	for c.Stats().Coalesced < 2 {
		select {
		case <-deadline:
			t.Fatalf("second fetch never coalesced: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for fi, payload := range results[i][vars[0].Name] {
			if string(payload) != string(vars[0].Ref.Fragments[fi]) {
				t.Fatalf("session %d fragment %d mismatch", i, fi)
			}
		}
	}
	if got := batchCalls.Load(); got != 1 {
		t.Fatalf("%d batch requests for identical concurrent wants, want 1", got)
	}
	st := c.Stats()
	wantWire := int64(len(vars[0].Ref.Fragments[0]) + len(vars[0].Ref.Fragments[1]))
	if st.WireBytes != wantWire {
		t.Fatalf("wire bytes %d, want %d (each fragment fetched once)", st.WireBytes, wantWire)
	}
}

// TestCoalescedWaiterSurvivesOwnerCancellation pins the isolation
// guarantee: when the session owning an in-flight batch cancels its
// context, a coalesced waiter with a live context re-fetches on its own
// instead of inheriting the owner's cancellation.
func TestCoalescedWaiterSurvivesOwnerCancellation(t *testing.T) {
	gate := make(chan struct{})
	var batchCalls atomic.Int64
	hs, vars := testService(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/frags") {
				if batchCalls.Add(1) == 1 {
					<-gate // park only the owner's fetch
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	c, err := New(hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	want := [][]int{{0, 1}}
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := collect(ownerCtx, d, par.New(0), want)
		ownerErr <- err
	}()
	// Wait until the owner's batch is parked on the server, then coalesce.
	deadline := time.After(5 * time.Second)
	for batchCalls.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("owner batch never reached the server")
		case <-time.After(time.Millisecond):
		}
	}
	waiterDone := make(chan struct{})
	var waiterRes map[string]map[int][]byte
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterRes, waiterErr = collect(context.Background(), d, par.New(0), want)
	}()
	for c.Stats().Coalesced < 2 {
		select {
		case <-deadline:
			t.Fatalf("waiter never coalesced: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	cancelOwner()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: want context.Canceled, got %v", err)
	}
	select {
	case <-waiterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never finished after owner cancellation")
	}
	close(gate)
	if waiterErr != nil {
		t.Fatalf("live waiter inherited the owner's cancellation: %v", waiterErr)
	}
	for fi, payload := range waiterRes[vars[0].Name] {
		if string(payload) != string(vars[0].Ref.Fragments[fi]) {
			t.Fatalf("waiter fragment %d mismatch after re-fetch", fi)
		}
	}
	if got := batchCalls.Load(); got < 2 {
		t.Fatalf("waiter did not issue its own fetch (%d batch calls)", got)
	}
}

func TestBadBaseURL(t *testing.T) {
	if _, err := New("ftp://nope", Options{}); err == nil {
		t.Fatal("ftp scheme accepted")
	}
}
