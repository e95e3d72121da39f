package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/obs"
	"progqoi/internal/progressive"
	"progqoi/internal/storage"
)

func testVars(t *testing.T) []*core.Variable {
	t.Helper()
	ds := datagen.GE("GE-srv", 4, 128, 11)
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vars
}

func testServer(t *testing.T, opt Options) (*httptest.Server, *Server, []*core.Variable) {
	t.Helper()
	vars := testVars(t)
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	srv, err := New(context.Background(), st, opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs, srv, vars
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// postFrags sends one batched fetch of fragments idx of variable vr, with
// a bearer token when one is given, and returns the status and body. It
// reports errors instead of failing, so goroutines may call it.
func postFrags(base, ds, token, vr string, idx ...int) (int, []byte, error) {
	body, err := json.Marshal(BatchRequest{Wants: []BatchWant{{Var: vr, Indices: idx}}})
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/d/"+ds+"/frags", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getFrag fetches one fragment through the batched route: the status, and
// the payload on 200 or the error text otherwise.
func getFrag(t *testing.T, base, ds, vr string, fi int) (int, []byte) {
	t.Helper()
	code, body, err := postFrags(base, ds, "", vr, fi)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		return code, body
	}
	frags, err := DecodeBatch(body)
	if err != nil || len(frags) != 1 || frags[0].Var != vr || frags[0].Index != fi {
		t.Fatalf("batch for %s/%d: %d fragments, %v", vr, fi, len(frags), err)
	}
	return code, frags[0].Payload
}

func TestDatasetsAndIndex(t *testing.T) {
	hs, _, vars := testServer(t, Options{})
	resp, body := get(t, hs.URL+"/v1/datasets")
	if resp.StatusCode != 200 {
		t.Fatalf("datasets: %s", resp.Status)
	}
	var dl struct {
		Datasets []string `json:"datasets"`
	}
	if err := json.Unmarshal(body, &dl); err != nil {
		t.Fatal(err)
	}
	if len(dl.Datasets) != 1 || dl.Datasets[0] != "ge" {
		t.Fatalf("datasets = %v", dl.Datasets)
	}

	resp, body = get(t, hs.URL+"/v1/d/ge/index")
	if resp.StatusCode != 200 {
		t.Fatalf("index: %s", resp.Status)
	}
	var idx Index
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Dataset != "ge" || len(idx.Variables) != len(vars) {
		t.Fatalf("index = %+v", idx)
	}
	for i, iv := range idx.Variables {
		if iv.Name != vars[i].Name {
			t.Errorf("variable %d = %q, want %q", i, iv.Name, vars[i].Name)
		}
		if len(iv.FragmentSizes) != len(vars[i].Ref.Fragments) {
			t.Errorf("%s: %d sizes for %d fragments", iv.Name, len(iv.FragmentSizes), len(vars[i].Ref.Fragments))
		}
		if iv.TotalBytes != vars[i].Ref.TotalBytes() {
			t.Errorf("%s: totalBytes %d, want %d", iv.Name, iv.TotalBytes, vars[i].Ref.TotalBytes())
		}
	}

	resp, _ = get(t, hs.URL+"/v1/d/nope/index")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown dataset: %s", resp.Status)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	hs, _, vars := testServer(t, Options{})
	resp, body := get(t, hs.URL+"/v1/d/ge/meta")
	if resp.StatusCode != 200 {
		t.Fatalf("meta: %s", resp.Status)
	}
	got, err := DecodeMeta(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vars) {
		t.Fatalf("%d meta variables, want %d", len(got), len(vars))
	}
	for i, v := range got {
		want := vars[i]
		if v.Name != want.Name || v.Range != want.Range {
			t.Errorf("meta %d: name/range %q/%g, want %q/%g", i, v.Name, v.Range, want.Name, want.Range)
		}
		if (v.ZeroMask == nil) != (want.ZeroMask == nil) {
			t.Errorf("meta %s: zero-mask presence mismatch", v.Name)
		}
		if len(v.Ref.Fragments) != len(want.Ref.Fragments) {
			t.Errorf("meta %s: %d fragments, want %d", v.Name, len(v.Ref.Fragments), len(want.Ref.Fragments))
		}
		for fi, f := range v.Ref.Fragments {
			if len(f) != 0 {
				t.Fatalf("meta %s fragment %d not stripped (%d bytes)", v.Name, fi, len(f))
			}
		}
	}
}

func TestBatchFetch(t *testing.T) {
	hs, _, vars := testServer(t, Options{})
	req := BatchRequest{Wants: []BatchWant{
		{Var: vars[0].Name, Indices: []int{0, 1, 2}},
		{Var: vars[1].Name, Indices: []int{0}},
	}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+"/v1/d/ge/frags", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %s", resp.Status)
	}
	frags, err := DecodeBatch(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 4 {
		t.Fatalf("%d fragments, want 4", len(frags))
	}
	for _, f := range frags {
		var v *core.Variable
		for _, cand := range vars {
			if cand.Name == f.Var {
				v = cand
			}
		}
		if v == nil || !bytes.Equal(f.Payload, v.Ref.Fragments[f.Index]) {
			t.Fatalf("batch fragment %s/%d mismatch", f.Var, f.Index)
		}
	}

	bad, _ := json.Marshal(BatchRequest{Wants: []BatchWant{{Var: "nope", Indices: []int{0}}}})
	resp2, err := http.Post(hs.URL+"/v1/d/ge/frags", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("unknown variable batch: %s", resp2.Status)
	}
	if code, _ := getFrag(t, hs.URL, "ge", vars[0].Name, 999999); code != http.StatusNotFound {
		t.Fatalf("out-of-range fragment: %d, want 404", code)
	}
}

// rawDo issues one request through a transport that neither asks for nor
// decodes gzip on its own, so the test sees exactly the encoding the
// server chose for the headers given (name, value pairs).
func rawDo(t *testing.T, method, url string, body []byte, hdr ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	gr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompressOnceContract pins which payloads the transport compresses:
// fragments are entropy-coded at refactor time, so the batched route that
// carries them answers identity whatever the client accepts; only the
// index and the meta blob negotiate gzip, from bytes built with the
// catalog — and rebuilt with it on a hot publish.
func TestCompressOnceContract(t *testing.T) {
	st := storage.NewMemStore()
	vars := packDatasetSized(t, st, "ds", 4096, 1)
	srv, err := New(context.Background(), st, Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	// A batch of all of one variable's fragments: a payload the
	// per-request size test this contract replaced would have compressed.
	all := make([]int, len(vars[0].Ref.Fragments))
	for i := range all {
		all[i] = i
	}
	batch, _ := json.Marshal(BatchRequest{Wants: []BatchWant{{Var: vars[0].Name, Indices: all}}})

	t.Run("identity frags", func(t *testing.T) {
		url := hs.URL + "/v1/d/ds/frags"
		_, plain := rawDo(t, "POST", url, batch)
		resp, got := rawDo(t, "POST", url, batch, "Accept-Encoding", "gzip")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		if enc := resp.Header.Get("Content-Encoding"); enc != "" {
			t.Fatalf("Content-Encoding = %q on an already entropy-coded payload", enc)
		}
		if v := resp.Header.Get("Vary"); v != "" {
			t.Fatalf("Vary = %q on a route with one representation", v)
		}
		if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(plain)) {
			t.Fatalf("Content-Length = %q, want %d", cl, len(plain))
		}
		if len(plain) < 512 || !bytes.Equal(got, plain) {
			t.Fatalf("%d bytes with Accept-Encoding: gzip differ from the %d identity bytes", len(got), len(plain))
		}
	})

	first := map[string][]byte{} // identity bytes of the first incarnation
	for _, what := range []string{"index", "meta"} {
		t.Run("negotiated "+what, func(t *testing.T) {
			url := hs.URL + "/v1/d/ds/" + what
			ident, plain := rawDo(t, "GET", url, nil)
			first[what] = plain
			tag := ident.Header.Get("ETag")
			if ident.Header.Get("Content-Encoding") != "" || tag == "" || strings.HasSuffix(tag, "-gz\"") {
				t.Fatalf("identity request: Content-Encoding %q, ETag %q", ident.Header.Get("Content-Encoding"), tag)
			}
			resp, gz := rawDo(t, "GET", url, nil, "Accept-Encoding", "gzip")
			gzTag := strings.TrimSuffix(tag, "\"") + "-gz\""
			if resp.Header.Get("Content-Encoding") != "gzip" || resp.Header.Get("ETag") != gzTag {
				t.Fatalf("gzip request: Content-Encoding %q, ETag %q, want gzip, %s",
					resp.Header.Get("Content-Encoding"), resp.Header.Get("ETag"), gzTag)
			}
			for _, r := range []*http.Response{ident, resp} {
				if v := r.Header.Get("Vary"); v != "Accept-Encoding" {
					t.Fatalf("Vary = %q, want Accept-Encoding", v)
				}
			}
			if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(gz)) {
				t.Fatalf("Content-Length = %q, want %d", cl, len(gz))
			}
			if len(gz) >= len(plain) || !bytes.Equal(gunzip(t, gz), plain) {
				t.Fatalf("%d gzip bytes do not round-trip to the %d identity bytes", len(gz), len(plain))
			}
			// An explicit q=0 refusal gets the identity representation.
			resp, got := rawDo(t, "GET", url, nil, "Accept-Encoding", "gzip;q=0")
			if resp.Header.Get("Content-Encoding") != "" || resp.Header.Get("ETag") != tag || !bytes.Equal(got, plain) {
				t.Fatalf("gzip;q=0: Content-Encoding %q, ETag %q", resp.Header.Get("Content-Encoding"), resp.Header.Get("ETag"))
			}
			// Either representation's validator revalidates, whichever
			// encoding the conditional request accepts.
			for _, inm := range []string{tag, gzTag} {
				for _, ae := range []string{"identity", "gzip"} {
					resp, body := rawDo(t, "GET", url, nil, "If-None-Match", inm, "Accept-Encoding", ae)
					if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
						t.Fatalf("If-None-Match %s, Accept-Encoding %s: %s with %d bytes, want 304 empty", inm, ae, resp.Status, len(body))
					}
				}
			}
		})
	}

	t.Run("republish rebuilds the gzip bytes", func(t *testing.T) {
		packDatasetSized(t, st, "ds", 4096, 99)
		if resp, body := postReload(t, hs.URL, "tok"); resp.StatusCode != http.StatusOK {
			t.Fatalf("reload: %s: %s", resp.Status, body)
		}
		for _, what := range []string{"index", "meta"} {
			url := hs.URL + "/v1/d/ds/" + what
			_, plain := rawDo(t, "GET", url, nil)
			if bytes.Equal(plain, first[what]) {
				t.Fatalf("republished %s identical to its predecessor — test is vacuous", what)
			}
			if _, gz := rawDo(t, "GET", url, nil, "Accept-Encoding", "gzip"); !bytes.Equal(gunzip(t, gz), plain) {
				t.Fatalf("%s: gzip bytes after reload do not decode to the republished payload (stale pre-compressed copy)", what)
			}
		}
	})
}

// gateStore blocks GetRange calls once armed until released, so a test can
// hold fragment reads in their handlers. Armed after New, it lets the
// catalog load (whole-blob Gets) through.
type gateStore struct {
	storage.Store
	mu      sync.Mutex
	armed   bool
	started chan string
	release chan struct{}
	once    sync.Once
}

// open releases every held and future read; safe to call more than once.
func (g *gateStore) open() { g.once.Do(func() { close(g.release) }) }

func (g *gateStore) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed {
		g.started <- key
		<-g.release
	}
	return g.Store.GetRange(ctx, key, off, n)
}

// gatedServer serves the test dataset from a gateStore with the hot cache
// off, so every fragment read reaches the gate.
func gatedServer(t *testing.T, opt Options) (*httptest.Server, *Server, *gateStore, []*core.Variable) {
	t.Helper()
	vars := testVars(t)
	mem := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), mem, "ge", vars); err != nil {
		t.Fatal(err)
	}
	gs := &gateStore{Store: mem, started: make(chan string, 16), release: make(chan struct{})}
	opt.HotCacheBytes = -1
	srv, err := New(context.Background(), gs, opt)
	if err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	gs.armed = true
	gs.mu.Unlock()
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	// Cleanups run last-in first-out: a test that fails while reads are
	// held opens the gate before hs.Close waits for their handlers.
	t.Cleanup(gs.open)
	return hs, srv, gs, vars
}

// TestConcurrencyLimit: with MaxInflight 2, two batched fetches hold the
// only slots while four more queue, and Stats reports exactly that from
// the admitter's one count.
func TestConcurrencyLimit(t *testing.T) {
	hs, srv, gs, vars := gatedServer(t, Options{MaxInflight: 2})
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, body, err := postFrags(hs.URL, "ge", "", vars[0].Name, 0); err != nil || code != http.StatusOK {
				t.Errorf("batch: %d %s %v", code, body, err)
			}
		}()
	}
	// Exactly MaxInflight requests may reach the store; the rest must queue
	// for a slot.
	for i := 0; i < 2; i++ {
		select {
		case <-gs.started:
		case <-time.After(5 * time.Second):
			t.Fatal("handlers never reached the store")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().QueuedInteractive != n-2 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", srv.Stats().QueuedInteractive, n-2)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case k := <-gs.started:
		t.Fatalf("third request (%s) passed a MaxInflight=2 limiter", k)
	case <-time.After(100 * time.Millisecond):
	}
	if st := srv.Stats(); st.Inflight != 2 || st.MaxConcurrent != 2 || st.Requests != n {
		t.Fatalf("while held: inflight %d, max %d, requests %d; want 2, 2, %d", st.Inflight, st.MaxConcurrent, st.Requests, n)
	}
	gs.open()
	wg.Wait()
	if st := srv.Stats(); st.Inflight != 0 || st.MaxConcurrent != 2 {
		t.Fatalf("after: inflight %d, max %d; want 0, 2", st.Inflight, st.MaxConcurrent)
	}
}

func TestHealthz(t *testing.T) {
	hs, _, _ := testServer(t, Options{})
	resp, body := get(t, hs.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %s", resp.Status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.Datasets != 1 {
		t.Fatalf("healthz = %+v", st)
	}
}

func TestWireCodecsRejectCorruption(t *testing.T) {
	vars := testVars(t)
	meta := EncodeMeta(vars)
	for _, mut := range []int{0, len(meta) / 2, len(meta) - 1} {
		bad := append([]byte(nil), meta...)
		bad[mut] ^= 0x40
		if _, err := DecodeMeta(bad); err == nil {
			t.Fatalf("corrupt meta (byte %d) accepted", mut)
		}
	}
	if _, err := DecodeMeta(meta[:len(meta)-3]); err == nil {
		t.Fatal("truncated meta accepted")
	}
	batch := EncodeBatch([]BatchFragment{{Var: "Vx", Index: 3, Payload: []byte("abc")}})
	if frags, err := DecodeBatch(batch); err != nil || len(frags) != 1 || frags[0].Index != 3 {
		t.Fatalf("batch round trip: %v %v", frags, err)
	}
	if _, err := DecodeBatch(batch[:len(batch)-2]); err == nil {
		t.Fatal("truncated batch accepted")
	}
}

func ExampleBuildIndex() {
	idx := BuildIndex("demo", nil)
	fmt.Println(idx.Dataset, len(idx.Variables))
	// Output: demo 0
}

func TestHotCacheServesAndCounts(t *testing.T) {
	hs, srv, vars := testServer(t, Options{})

	code, body := getFrag(t, hs.URL, "ge", vars[0].Name, 0)
	if code != 200 || !bytes.Equal(body, vars[0].Ref.Fragments[0]) {
		t.Fatalf("first read: %d, %d bytes", code, len(body))
	}
	st := srv.Stats()
	if st.HotCacheMisses == 0 || st.HotCacheEntries == 0 {
		t.Fatalf("first read did not miss into the cache: %+v", st)
	}

	code, body = getFrag(t, hs.URL, "ge", vars[0].Name, 0)
	if code != 200 || !bytes.Equal(body, vars[0].Ref.Fragments[0]) {
		t.Fatalf("second read: %d, %d bytes", code, len(body))
	}
	st2 := srv.Stats()
	if st2.HotCacheHits == 0 {
		t.Fatalf("second read missed the hot cache: %+v", st2)
	}
	if st2.HotCacheMisses != st.HotCacheMisses {
		t.Fatalf("second read went to the store: %d -> %d misses", st.HotCacheMisses, st2.HotCacheMisses)
	}
}

func TestHotCacheEvictsUnderBytePressure(t *testing.T) {
	// A cache smaller than one variable's fragments must keep evicting yet
	// serve every payload correctly.
	hs, srv, vars := testServer(t, Options{HotCacheBytes: 4 << 10})
	for vi, v := range vars {
		for fi, want := range v.Ref.Fragments {
			code, body := getFrag(t, hs.URL, "ge", v.Name, fi)
			if code != 200 || !bytes.Equal(body, want) {
				t.Fatalf("var %d frag %d: %d, %d bytes (want %d)", vi, fi, code, len(body), len(want))
			}
		}
	}
	st := srv.Stats()
	if st.HotCacheEvictions == 0 {
		t.Fatalf("tiny cache never evicted: %+v", st)
	}
	if st.HotCacheBytes > 4<<10 {
		t.Fatalf("cache exceeded its byte bound: %d", st.HotCacheBytes)
	}
}

func TestHotCacheDisabledStillServes(t *testing.T) {
	hs, srv, vars := testServer(t, Options{HotCacheBytes: -1})
	for i := 0; i < 2; i++ {
		code, body := getFrag(t, hs.URL, "ge", vars[0].Name, 1)
		if code != 200 || !bytes.Equal(body, vars[0].Ref.Fragments[1]) {
			t.Fatalf("read %d: %d", i, code)
		}
	}
	st := srv.Stats()
	if st.HotCacheHits != 0 || st.HotCacheEntries != 0 {
		t.Fatalf("disabled cache recorded hits/entries: %+v", st)
	}
}

func TestFragmentCorruptAtRestDetected(t *testing.T) {
	vars := testVars(t)
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	srv, err := New(context.Background(), st, Options{HotCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Rot one byte inside fragment 0's payload region after startup: the
	// per-read ETag check must refuse to serve it.
	key := storage.VarKey("ge", vars[0].Name)
	raw, err := st.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	_, locs, err := storage.ReadArchiveRanged(context.Background(), st, "ge")
	if err != nil {
		t.Fatal(err)
	}
	raw[locs[0][0].Off] ^= 0xff
	if err := st.Put(context.Background(), key, raw); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	// A batch whose second fragment is corrupt fails whole, and the
	// healthy fragment read before it was never sent, so it is not counted.
	code, body, err := postFrags(hs.URL, "ge", "", vars[0].Name, 1, 0)
	if err != nil || code != http.StatusInternalServerError {
		t.Fatalf("batch with a corrupt fragment: %d %v, want 500", code, err)
	}
	if !bytes.Contains(body, []byte("corrupt")) {
		t.Fatalf("error does not name corruption: %q", body)
	}
	if st := srv.Stats(); st.FragmentBytes != 0 {
		t.Fatalf("failed batch counted %d fragment bytes, want 0", st.FragmentBytes)
	}
	// The untouched fragment next door still serves, and counts.
	code, frag := getFrag(t, hs.URL, "ge", vars[0].Name, 1)
	if code != 200 {
		t.Fatalf("healthy fragment refused: %d", code)
	}
	if got := srv.Stats().FragmentBytes; got != int64(len(frag)) {
		t.Fatalf("FragmentBytes = %d after one %d-byte fragment", got, len(frag))
	}
}

func TestMetricsExposition(t *testing.T) {
	hs, _, vars := testServer(t, Options{})
	body, _ := json.Marshal(BatchRequest{Wants: []BatchWant{{Var: vars[0].Name, Indices: []int{0, 1}}}})
	resp, err := http.Post(hs.URL+"/v1/d/ge/frags", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	mresp, mbody := get(t, hs.URL+"/metrics")
	if mresp.StatusCode != 200 {
		t.Fatalf("/metrics: %s", mresp.Status)
	}
	// Prometheus requires the exact versioned media type for the text
	// exposition format; a bare text/plain makes some scrapers guess.
	if ct, want := mresp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; ct != want {
		t.Fatalf("content type %q, want %q", ct, want)
	}
	text := string(mbody)
	for _, want := range []string{
		"progqoid_requests_total",
		`progqoid_route_requests_total{route="frags"} 1`,
		"progqoid_batch_requests_total 1",
		"progqoid_batch_fragments_total 2",
		"progqoid_inflight_requests",
		"progqoid_fragment_bytes_total",
		"progqoid_hot_cache_hits_total",
		"progqoid_hot_cache_misses_total",
		"# TYPE progqoid_requests_total counter",
		"# TYPE progqoid_request_duration_seconds histogram",
		`progqoid_request_duration_seconds_bucket{route="frags",le="+Inf"} 1`,
		`progqoid_request_duration_seconds_count{route="frags"} 1`,
		"# TYPE progqoid_frags_request_bytes histogram",
		"progqoid_frags_request_bytes_count 1",
		"# TYPE progqoid_frags_response_bytes histogram",
		"progqoid_frags_response_bytes_count 1",
		"# TYPE progqoid_goroutines gauge",
		"# TYPE progqoid_heap_alloc_bytes gauge",
		"# TYPE progqoid_gc_pause_seconds_total counter",
	} {
		if !bytes.Contains(mbody, []byte(want)) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	for _, gone := range []string{`route="frag"`, `route="store"`, "progqoid_fragments_served_total"} {
		if bytes.Contains(mbody, []byte(gone)) {
			t.Fatalf("/metrics still reports the retired %s", gone)
		}
	}

	// The whole document must survive the strict exposition parser: every
	// sample preceded by HELP and TYPE, histogram children well-formed.
	fams, err := obs.ParseExposition(bytes.NewReader(mbody))
	if err != nil {
		t.Fatalf("/metrics failed strict exposition parse: %v\n%s", err, text)
	}
	if f := fams["progqoid_request_duration_seconds"]; f == nil || f.Type != "histogram" || f.Samples == 0 {
		t.Fatalf("request_duration_seconds family malformed: %+v", fams["progqoid_request_duration_seconds"])
	}
}

func TestClusterInfoEndpoint(t *testing.T) {
	hs, _, _ := testServer(t, Options{
		Advertise: "http://node0:9123",
		Peers:     []string{"http://node1:9123", "http://node2:9123"},
	})
	resp, body := get(t, hs.URL+"/v1/cluster")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/cluster: %s", resp.Status)
	}
	var info ClusterInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Advertise != "http://node0:9123" || len(info.Peers) != 2 {
		t.Fatalf("cluster info = %+v", info)
	}

	// A solo node reports an empty, non-null peer list.
	hs2, _, _ := testServer(t, Options{})
	_, body2 := get(t, hs2.URL+"/v1/cluster")
	if !bytes.Contains(body2, []byte(`"peers":[]`)) {
		t.Fatalf("solo cluster info = %s", body2)
	}
}

func TestStatsSnapshotConsistency(t *testing.T) {
	// Hammer the server while polling Stats: the admitter reports its
	// counts from one critical section, so no snapshot may ever show more
	// in-flight requests than the recorded high-water mark, nor a mark
	// above the slot count.
	const slots = 4
	hs, srv, vars := testServer(t, Options{MaxInflight: slots})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				postFrags(hs.URL, "ge", "", vars[0].Name, 0) //nolint:errcheck // load only
			}
		}()
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var lastRequests int64
	for time.Now().Before(deadline) {
		st := srv.Stats()
		if st.Inflight > st.MaxConcurrent || st.MaxConcurrent > slots {
			t.Errorf("torn snapshot: inflight %d, maxConcurrent %d, %d slots", st.Inflight, st.MaxConcurrent, slots)
			break
		}
		if st.Requests < lastRequests {
			t.Errorf("requests went backwards: %d -> %d", lastRequests, st.Requests)
			break
		}
		lastRequests = st.Requests
	}
	close(stop)
	wg.Wait()
}

// TestRouteTable: every route FORMATS.md lists answers, and the retired
// single-fragment GET and raw store passthrough answer 404.
func TestRouteTable(t *testing.T) {
	hs, _, vars := testServer(t, Options{})
	batch, _ := json.Marshal(BatchRequest{Wants: []BatchWant{{Var: vars[0].Name, Indices: []int{0}}}})
	for _, rt := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		{"GET", "/healthz", nil, http.StatusOK},
		{"GET", "/metrics", nil, http.StatusOK},
		{"GET", "/v1/cluster", nil, http.StatusOK},
		{"POST", "/v1/cluster/join", nil, http.StatusBadRequest},
		{"POST", "/v1/cluster/heartbeat", nil, http.StatusBadRequest},
		{"POST", "/v1/cluster/leave", nil, http.StatusBadRequest},
		{"POST", "/v1/cluster/drain", nil, http.StatusForbidden},
		{"GET", "/v1/datasets", nil, http.StatusOK},
		{"POST", "/v1/datasets/reload", nil, http.StatusForbidden},
		{"GET", "/v1/d/ge/index", nil, http.StatusOK},
		{"GET", "/v1/d/ge/meta", nil, http.StatusOK},
		{"POST", "/v1/d/ge/frags", batch, http.StatusOK},
		{"GET", "/v1/d/ge/frag/" + vars[0].Name + "/0", nil, http.StatusNotFound},
		{"GET", "/v1/store/keys", nil, http.StatusNotFound},
		{"GET", "/v1/store/blob/ge.manifest", nil, http.StatusNotFound},
	} {
		if resp, _ := rawDo(t, rt.method, hs.URL+rt.path, rt.body); resp.StatusCode != rt.want {
			t.Errorf("%s %s: %s, want %d", rt.method, rt.path, resp.Status, rt.want)
		}
	}
}
