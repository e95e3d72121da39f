package objstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"progqoi/internal/obs"
	"progqoi/internal/retry"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore/miniobj"
)

// Every test runs with SigV4 credentials configured unless it says
// otherwise, so the client's signer and miniobj's independently written
// verifier cross-check each other on every request.

const (
	testBucket = "archives"
	testAccess = "AKIDTEST"
	testSecret = "sekrit/with+chars"
)

// instant is a retry.Clock whose waits end at once.
type instant struct{}

func (instant) Now() time.Time { return time.Time{} }

func (instant) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}

// stalled is a retry.Clock whose waits never end.
type stalled struct{}

func (stalled) Now() time.Time                       { return time.Time{} }
func (stalled) After(time.Duration) <-chan time.Time { return nil }

// newPair starts a credentialed mock bucket and a store pointed at it,
// backing off on the instant clock. mutate can adjust Options before New
// (nil for defaults).
func newPair(t *testing.T, mutate func(*Options)) (*miniobj.Server, *Store) {
	t.Helper()
	srv := miniobj.New(testBucket, miniobj.Credentials{AccessKey: testAccess, SecretKey: testSecret})
	t.Cleanup(srv.Close)
	opts := Options{
		Endpoint:  srv.URL(),
		Bucket:    testBucket,
		AccessKey: testAccess,
		SecretKey: testSecret,
	}
	if mutate != nil {
		mutate(&opts)
	}
	st, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st.clock = instant{}
	return srv, st
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"empty endpoint", Options{Bucket: "b"}},
		{"relative endpoint", Options{Endpoint: "localhost:9000", Bucket: "b"}},
		{"wrong scheme", Options{Endpoint: "ftp://host", Bucket: "b"}},
		{"missing bucket", Options{Endpoint: "http://h"}},
		{"slash in bucket", Options{Endpoint: "http://h", Bucket: "a/b"}},
		{"query char in bucket", Options{Endpoint: "http://h", Bucket: "b?x"}},
		{"half credentials", Options{Endpoint: "http://h", Bucket: "b", AccessKey: "k"}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.opts)
		}
	}
	st, err := New(Options{Endpoint: "http://h", Bucket: "b"})
	if err != nil {
		t.Fatalf("valid opts rejected: %v", err)
	}
	if st.opts.Region != "us-east-1" || st.opts.MaxRetries != retry.DefaultRetries ||
		st.opts.CacheBytes != DefaultCacheBytes || st.clock != (retry.Wall{}) {
		t.Errorf("defaults not applied: %+v", st.opts)
	}
	if st, _ := New(Options{Endpoint: "http://h", Bucket: "b", MaxRetries: -1, CacheBytes: -1}); st.opts.MaxRetries != 0 || st.opts.CacheBytes != 0 {
		t.Errorf("negative MaxRetries/CacheBytes should disable, got %+v", st.opts)
	}
}

func TestRoundTripSigned(t *testing.T) {
	srv, st := newPair(t, func(o *Options) { o.Prefix = "team data/v1" })
	ctx := context.Background()
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64)
	if err := st.Put(ctx, "ds.manifest", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := srv.Keys(); len(got) != 1 || got[0] != "team data/v1/ds.manifest" {
		t.Fatalf("bucket keys = %v, want the prefixed object", got)
	}
	b, err := st.Get(ctx, "ds.manifest")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(b, payload) {
		t.Fatalf("Get returned %d bytes, want %d", len(b), len(payload))
	}
	keys, err := st.Keys(ctx)
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 1 || keys[0] != "ds.manifest" {
		t.Fatalf("Keys = %v, want [ds.manifest]", keys)
	}
}

func TestSignatureRejected(t *testing.T) {
	_, st := newPair(t, func(o *Options) { o.SecretKey = "wrong-secret" })
	if _, err := st.Get(context.Background(), "k"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("bad secret: got %v, want ErrAccessDenied", err)
	}
}

func TestUnsignedAgainstOpenBucket(t *testing.T) {
	srv := miniobj.New(testBucket, miniobj.Credentials{})
	defer srv.Close()
	srv.Put("k", []byte("public"))
	st, err := New(Options{Endpoint: srv.URL(), Bucket: testBucket})
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Get(context.Background(), "k")
	if err != nil || string(b) != "public" {
		t.Fatalf("unsigned Get = %q, %v", b, err)
	}
}

func TestGetRangeExact(t *testing.T) {
	srv, st := newPair(t, func(o *Options) { o.CacheBytes = -1 })
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	srv.Put("blob", data)
	ctx := context.Background()
	for _, r := range []struct{ off, n int64 }{{0, 1}, {17, 100}, {4000, 96}, {0, 4096}} {
		got, err := st.GetRange(ctx, "blob", r.off, r.n)
		if err != nil {
			t.Fatalf("GetRange(%d,%d): %v", r.off, r.n, err)
		}
		if !bytes.Equal(got, data[r.off:r.off+r.n]) {
			t.Fatalf("GetRange(%d,%d) returned wrong bytes", r.off, r.n)
		}
	}
	// Zero-length ranges answer locally.
	gets0, _, _, _ := srv.Stats()
	if got, err := st.GetRange(ctx, "blob", 10, 0); err != nil || len(got) != 0 {
		t.Fatalf("zero-length range = %v, %v", got, err)
	}
	if gets, _, _, _ := srv.Stats(); gets != gets0 {
		t.Fatalf("zero-length range hit the wire")
	}
	// Negative ranges are rejected locally.
	if _, err := st.GetRange(ctx, "blob", -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	// Ranges past the object fail (416 from the server).
	if _, err := st.GetRange(ctx, "blob", 5000, 4); err == nil {
		t.Fatal("out-of-bounds range accepted")
	}
}

// TestGetRangeRejectsMismatchedResponses serves ranged GETs from a plain
// handler that answers 206 but with another slice of the object, without
// Content-Range, or with a body longer than the range: none of them may
// come back as data.
func TestGetRangeRejectsMismatchedResponses(t *testing.T) {
	data := []byte("0123456789abcdefghij")
	const off, length = 5, 4
	cases := []struct {
		name         string
		contentRange string
		body         []byte
		ok           bool
	}{
		{"exact", "bytes 5-8/20", data[5:9], true},
		{"exact, unknown size", "bytes 5-8/*", data[5:9], true},
		{"another slice of the same length", "bytes 6-9/20", data[6:10], false},
		{"no Content-Range", "", data[5:9], false},
		{"body longer than the range", "bytes 5-8/20", data[5:10], false},
		{"body shorter than the range", "bytes 5-8/20", data[5:8], false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.contentRange != "" {
					w.Header().Set("Content-Range", tc.contentRange)
				}
				w.WriteHeader(http.StatusPartialContent)
				w.Write(tc.body) //nolint:errcheck // test handler
			}))
			defer hs.Close()
			st, err := New(Options{Endpoint: hs.URL, Bucket: testBucket, MaxRetries: -1, CacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.GetRange(context.Background(), "k", off, length)
			if tc.ok {
				if err != nil || !bytes.Equal(got, data[off:off+length]) {
					t.Fatalf("GetRange = %q, %v; want %q", got, err, data[off:off+length])
				}
				return
			}
			if err == nil {
				t.Fatalf("GetRange accepted %q as the range [%d,%d)", got, off, off+length)
			}
		})
	}
}

// TestSigningKeyRollsOverAtUTCMidnight signs requests on both sides of a
// UTC day boundary. The cached signing key must follow the credential
// scope's date, or miniobj's independent re-derivation rejects the
// request signed after midnight.
func TestSigningKeyRollsOverAtUTCMidnight(t *testing.T) {
	srv, st := newPair(t, nil)
	srv.Put("k", []byte("v"))
	midnight := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	tokyo := time.FixedZone("UTC+9", 9*3600)
	for _, now := range []time.Time{
		midnight.Add(-time.Second),
		midnight.Add(-time.Millisecond).In(tokyo), // 08:59:59.999 local, still Feb 28 in UTC
		midnight,
		midnight.Add(time.Second),
	} {
		req, err := http.NewRequest(http.MethodGet, srv.URL()+"/"+testBucket+"/k", nil)
		if err != nil {
			t.Fatal(err)
		}
		st.signAt(req, emptyPayloadSHA256, now)
		date := now.UTC().Format("20060102")
		if auth := req.Header.Get("Authorization"); !strings.Contains(auth, "/"+date+"/") {
			t.Fatalf("signed at %v: credential scope %q lacks date %s", now, auth, date)
		}
		resp, err := st.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // status-only
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("signed at %v: http %d", now, resp.StatusCode)
		}
		if k := st.sigKey.Load(); k == nil || k.date != date {
			t.Fatalf("signed at %v: cached key scope %+v, want date %s", now, k, date)
		}
	}
}

// countingTransport counts the HTTP requests a store sends, including
// the ones a fault injected before the mock's own counters see them.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// counted installs a countingTransport and disables the cache, so every
// read reaches the wire.
func counted(rt *countingTransport) func(*Options) {
	return func(o *Options) {
		o.HTTPClient = &http.Client{Transport: rt}
		o.CacheBytes = -1
	}
}

// checkRequests asserts the requests sent since the last check.
func checkRequests(t *testing.T, rt *countingTransport, want int64) {
	t.Helper()
	if got := rt.n.Swap(0); got != want {
		t.Fatalf("%d requests, want %d", got, want)
	}
}

func TestRetryTransient(t *testing.T) {
	rt := &countingTransport{}
	srv, st := newPair(t, counted(rt))
	srv.Put("k", []byte("value"))
	ctx := context.Background()

	srv.Fail503(2) // within the default budget of 3
	if b, err := st.Get(ctx, "k"); err != nil || string(b) != "value" {
		t.Fatalf("Get after 2x503 = %q, %v", b, err)
	}
	checkRequests(t, rt, 3)

	srv.TruncateNext(1)
	if b, err := st.GetRange(ctx, "k", 0, 5); err != nil || string(b) != "value" {
		t.Fatalf("GetRange after truncation = %q, %v", b, err)
	}
	checkRequests(t, rt, 2)
}

func TestRetryBudgetExhausted(t *testing.T) {
	rt := &countingTransport{}
	srv, st := newPair(t, func(o *Options) { counted(rt)(o); o.MaxRetries = 2 })
	srv.Put("k", []byte("value"))
	srv.Fail503(10)
	_, err := st.Get(context.Background(), "k")
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 503 {
		t.Fatalf("got %v, want StatusError 503", err)
	}
	checkRequests(t, rt, 3)
}

func TestPermanentFailuresDoNotRetry(t *testing.T) {
	rt := &countingTransport{}
	srv, st := newPair(t, counted(rt))
	srv.Put("k", []byte("value"))
	ctx := context.Background()

	if _, err := st.Get(ctx, "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("missing key: got %v, want storage.ErrNotFound", err)
	}
	checkRequests(t, rt, 1)

	srv.Deny403(true)
	_, _, _, denied0 := srv.Stats()
	if _, err := st.Get(ctx, "k"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("denied: got %v, want ErrAccessDenied", err)
	}
	if _, _, _, denied := srv.Stats(); denied != denied0+1 {
		t.Fatalf("403 was retried: %d denials for one Get", denied-denied0)
	}
	checkRequests(t, rt, 1)
}

func TestETagPinning(t *testing.T) {
	srv, st := newPair(t, func(o *Options) { o.CacheBytes = -1 })
	srv.Put("k", []byte("incarnation-one"))
	ctx := context.Background()
	if _, err := st.Get(ctx, "k"); err != nil {
		t.Fatalf("first Get: %v", err)
	}
	// Same bytes, same ETag: later reads keep working.
	if _, err := st.GetRange(ctx, "k", 0, 4); err != nil {
		t.Fatalf("ranged read under pin: %v", err)
	}
	// Republish behind the store's back: every read must now fail — no
	// retry, no stale bytes.
	srv.Mutate("k", []byte("incarnation-TWO"))
	if _, err := st.Get(ctx, "k"); !errors.Is(err, ErrETagChanged) {
		t.Fatalf("full read after mutate: got %v, want ErrETagChanged", err)
	}
	if _, err := st.GetRange(ctx, "k", 0, 4); !errors.Is(err, ErrETagChanged) {
		t.Fatalf("ranged read after mutate: got %v, want ErrETagChanged", err)
	}
	// A Put through this store re-pins: reads recover on the new bytes.
	if err := st.Put(ctx, "k", []byte("incarnation-three")); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	b, err := st.Get(ctx, "k")
	if err != nil || string(b) != "incarnation-three" {
		t.Fatalf("Get after re-Put = %q, %v", b, err)
	}
}

func TestCacheServesRepeatsAndSlicesFullObjects(t *testing.T) {
	srv, st := newPair(t, nil)
	data := bytes.Repeat([]byte("x"), 1000)
	srv.Put("k", data)
	ctx := context.Background()

	if _, err := st.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	// A range of a cached full object is sliced locally, not fetched.
	if b, err := st.GetRange(ctx, "k", 10, 20); err != nil || len(b) != 20 {
		t.Fatalf("sliced range = %d bytes, %v", len(b), err)
	}
	gets, _, _, _ := srv.Stats()
	if gets != 1 {
		t.Fatalf("3 reads cost %d wire GETs, want 1", gets)
	}
	if hits := st.cache.Stats().Hits; hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", hits)
	}
	st2 := st.FetchStats()
	if st2.ColdFetches != 1 || st2.ColdFetchBytes != 1000 {
		t.Fatalf("FetchStats = %+v, want 1 fetch / 1000 bytes", st2)
	}

	// Put drops both cache shapes for the key.
	if err := st.Put(ctx, "k", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	b, err := st.Get(ctx, "k")
	if err != nil || string(b) != "fresh" {
		t.Fatalf("Get after Put = %q, %v (stale cache?)", b, err)
	}
}

func TestCacheEviction(t *testing.T) {
	srv, st := newPair(t, func(o *Options) { o.CacheBytes = 2048 })
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		srv.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 1024))
	}
	for i := 0; i < 4; i++ {
		if _, err := st.Get(ctx, fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cs := st.cache.Stats()
	if cs.Bytes > 2048 || cs.Entries > 2 {
		t.Fatalf("cache over budget: %d bytes in %d entries", cs.Bytes, cs.Entries)
	}
	if cs.Evictions < 2 {
		t.Fatalf("evictions = %d, want >= 2", cs.Evictions)
	}
	// Oversized values bypass the cache entirely.
	srv.Put("big", bytes.Repeat([]byte("b"), 4096))
	if _, err := st.Get(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	if size := st.cache.Stats().Bytes; size > 2048 {
		t.Fatalf("oversized value cached: %d bytes", size)
	}
}

func TestColdFetchSpansReconcile(t *testing.T) {
	srv, st := newPair(t, func(o *Options) { o.CacheBytes = -1 })
	srv.Put("a", bytes.Repeat([]byte("a"), 100))
	srv.Put("b", bytes.Repeat([]byte("b"), 300))
	tr := obs.NewTrace()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, err := st.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetRange(ctx, "b", 50, 200); err != nil {
		t.Fatal(err)
	}
	var spanBytes int64
	var spans int
	for _, sp := range tr.Spans() {
		if sp.Cat == obs.CatStore {
			spanBytes += sp.Bytes
			spans++
		}
	}
	fs := st.FetchStats()
	if spans != 2 || spanBytes != fs.ColdFetchBytes || fs.ColdFetchBytes != 300 {
		t.Fatalf("spans=%d spanBytes=%d stats=%+v; want 2 spans summing to the cold-fetch counter (300)",
			spans, spanBytes, fs)
	}
	if fs.ColdFetchSeconds <= 0 {
		t.Fatalf("ColdFetchSeconds = %v, want > 0", fs.ColdFetchSeconds)
	}
}

func TestKeysPaginationAndNesting(t *testing.T) {
	srv, st := newPair(t, func(o *Options) { o.Prefix = "p" })
	for i := 0; i < 7; i++ {
		srv.Put(fmt.Sprintf("p/ds%d.manifest", i), []byte("m"))
	}
	srv.Put("p/nested/skip.var", []byte("x")) // pseudo-directory: not a flat archive key
	srv.Put("outside.manifest", []byte("x"))  // other prefix: invisible
	srv.SetMaxKeys(2)                         // force 4+ pages
	keys, err := st.Keys(context.Background())
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 7 {
		t.Fatalf("Keys = %v, want the 7 flat p/ keys", keys)
	}
	for i, k := range keys {
		if want := fmt.Sprintf("ds%d.manifest", i); k != want {
			t.Fatalf("keys[%d] = %q, want %q", i, k, want)
		}
	}
	_, lists, _, _ := srv.Stats()
	if lists < 4 {
		t.Fatalf("%d list pages served, want >= 4 (pagination not exercised)", lists)
	}
}

func TestContextCancellationStopsRetry(t *testing.T) {
	srv, st := newPair(t, nil)
	st.clock = stalled{} // only the context can end the backoff wait
	srv.Put("k", []byte("v"))
	srv.Fail503(10)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := st.Get(ctx, "k")
	if err == nil {
		t.Fatal("Get succeeded under permanent 503")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded in chain", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 503 {
		t.Fatalf("got %v, want the last attempt's 503 still in chain", err)
	}
}

func TestSlowStoreHonorsDeadline(t *testing.T) {
	srv, st := newPair(t, func(o *Options) { o.MaxRetries = -1 })
	srv.Put("k", []byte("v"))
	srv.SetDelay(2 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := st.Get(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow store: got %v, want deadline exceeded", err)
	}
}

func TestSpecialCharacterKeysSignCorrectly(t *testing.T) {
	// Keys with spaces, '+', '=' and unicode must survive the
	// sign-encode / verify-decode round trip byte-identically.
	srv, st := newPair(t, func(o *Options) { o.Prefix = "pre fix" })
	ctx := context.Background()
	for _, key := range []string{"a b.var", "plus+plus", "eq=sign", "tilde~ok", "unié.var"} {
		want := []byte("payload for " + key)
		if err := st.Put(ctx, key, want); err != nil {
			t.Fatalf("Put %q: %v", key, err)
		}
		got, err := st.Get(ctx, key)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get %q = %q, %v", key, got, err)
		}
	}
	_ = srv
}

func TestStatusErrorMessage(t *testing.T) {
	e := &StatusError{Op: "range", Key: "ds.v.var", Status: 502}
	if msg := e.Error(); !strings.Contains(msg, "range") || !strings.Contains(msg, "502") {
		t.Fatalf("StatusError message %q", msg)
	}
}
