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

func TestFragmentETagAnd304(t *testing.T) {
	hs, srv, vars := testServer(t, Options{})
	url := hs.URL + "/v1/d/ge/frag/" + vars[0].Name + "/0"
	resp, body := get(t, url)
	if resp.StatusCode != 200 {
		t.Fatalf("frag: %s", resp.Status)
	}
	if !bytes.Equal(body, vars[0].Ref.Fragments[0]) {
		t.Fatal("fragment payload mismatch")
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("no ETag on immutable fragment")
	}
	if cc := resp.Header.Get("Cache-Control"); cc == "" {
		t.Fatal("no Cache-Control on immutable fragment")
	}

	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("If-None-Match", tag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(b2) != 0 {
		t.Fatalf("conditional GET: %s with %d bytes, want 304 empty", resp2.Status, len(b2))
	}

	resp3, _ := get(t, hs.URL+"/v1/d/ge/frag/"+vars[0].Name+"/999999")
	if resp3.StatusCode != 404 {
		t.Fatalf("out-of-range fragment: %s", resp3.Status)
	}

	// A 304 revalidation ships no payload, so it must not inflate the
	// fragment-bytes stat.
	served := srv.Stats().FragmentBytes
	req2, _ := http.NewRequest("GET", url, nil)
	req2.Header.Set("If-None-Match", tag)
	resp4, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if got := srv.Stats().FragmentBytes; got != served {
		t.Fatalf("304 revalidation grew FragmentBytes %d -> %d", served, got)
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
// fragments are entropy-coded at refactor time, so every route that
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
	// The largest fragment, and a batch of all of them: payloads the
	// per-request size test this contract replaced would have compressed.
	name, frags := vars[0].Name, vars[0].Ref.Fragments
	big, all := 0, make([]int, len(frags))
	for i, f := range frags {
		all[i] = i
		if len(f) > len(frags[big]) {
			big = i
		}
	}
	batch, _ := json.Marshal(BatchRequest{Wants: []BatchWant{{Var: name, Indices: all}}})

	for _, rt := range []struct {
		route, method, path string
		body                []byte
	}{
		{"frag", "GET", fmt.Sprintf("/v1/d/ds/frag/%s/%d", name, big), nil},
		{"frags", "POST", "/v1/d/ds/frags", batch},
		{"store/blob", "GET", "/v1/store/blob/" + storage.VarKey("ds", name), nil},
	} {
		t.Run("identity "+rt.route, func(t *testing.T) {
			_, plain := rawDo(t, rt.method, hs.URL+rt.path, rt.body)
			resp, got := rawDo(t, rt.method, hs.URL+rt.path, rt.body, "Accept-Encoding", "gzip")
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
	}

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

// gateStore blocks Get calls (after construction) until released, so the
// test can observe the concurrency limiter holding requests back.
type gateStore struct {
	storage.Store
	mu      sync.Mutex
	armed   bool
	started chan string
	release chan struct{}
}

func (g *gateStore) Get(ctx context.Context, key string) ([]byte, error) {
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed {
		g.started <- key
		<-g.release
	}
	return g.Store.Get(ctx, key)
}

func TestConcurrencyLimit(t *testing.T) {
	vars := testVars(t)
	mem := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), mem, "ge", vars); err != nil {
		t.Fatal(err)
	}
	gs := &gateStore{Store: mem, started: make(chan string, 16), release: make(chan struct{})}
	srv, err := New(context.Background(), gs, Options{MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	gs.armed = true
	gs.mu.Unlock()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(hs.URL + "/v1/store/blob/ge.manifest")
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}
	// Exactly MaxInflight requests may reach the store; the rest must queue
	// on the semaphore.
	for i := 0; i < 2; i++ {
		select {
		case <-gs.started:
		case <-time.After(5 * time.Second):
			t.Fatal("handlers never reached the store")
		}
	}
	select {
	case k := <-gs.started:
		t.Fatalf("third request (%s) passed a MaxInflight=2 limiter", k)
	case <-time.After(100 * time.Millisecond):
	}
	close(gs.release)
	wg.Wait()
	if max := srv.Stats().MaxConcurrent; max > 2 {
		t.Fatalf("max concurrent %d, want <= 2", max)
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
	url := fmt.Sprintf("%s/v1/d/ge/frag/%s/0", hs.URL, vars[0].Name)

	resp, body := get(t, url)
	if resp.StatusCode != 200 || !bytes.Equal(body, vars[0].Ref.Fragments[0]) {
		t.Fatalf("first read: %s, %d bytes", resp.Status, len(body))
	}
	st := srv.Stats()
	if st.HotCacheMisses == 0 || st.HotCacheEntries == 0 {
		t.Fatalf("first read did not miss into the cache: %+v", st)
	}

	resp, body = get(t, url)
	if resp.StatusCode != 200 || !bytes.Equal(body, vars[0].Ref.Fragments[0]) {
		t.Fatalf("second read: %s, %d bytes", resp.Status, len(body))
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
			resp, body := get(t, fmt.Sprintf("%s/v1/d/ge/frag/%s/%d", hs.URL, v.Name, fi))
			if resp.StatusCode != 200 || !bytes.Equal(body, want) {
				t.Fatalf("var %d frag %d: %s, %d bytes (want %d)", vi, fi, resp.Status, len(body), len(want))
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
	url := fmt.Sprintf("%s/v1/d/ge/frag/%s/1", hs.URL, vars[0].Name)
	for i := 0; i < 2; i++ {
		resp, body := get(t, url)
		if resp.StatusCode != 200 || !bytes.Equal(body, vars[0].Ref.Fragments[1]) {
			t.Fatalf("read %d: %s", i, resp.Status)
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
	locs, err := storage.VariableFragmentRanges(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw[locs[0].Off] ^= 0xff
	if err := st.Put(context.Background(), key, raw); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, body := get(t, fmt.Sprintf("%s/v1/d/ge/frag/%s/0", hs.URL, vars[0].Name))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt fragment served: %s", resp.Status)
	}
	if !bytes.Contains(body, []byte("corrupt")) {
		t.Fatalf("error does not name corruption: %q", body)
	}
	// The untouched fragment next door still serves.
	resp, _ = get(t, fmt.Sprintf("%s/v1/d/ge/frag/%s/1", hs.URL, vars[0].Name))
	if resp.StatusCode != 200 {
		t.Fatalf("healthy fragment refused: %s", resp.Status)
	}
}

func TestMetricsExposition(t *testing.T) {
	hs, _, vars := testServer(t, Options{})
	get(t, fmt.Sprintf("%s/v1/d/ge/frag/%s/0", hs.URL, vars[0].Name))
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
		`progqoid_route_requests_total{route="frag"} 1`,
		`progqoid_route_requests_total{route="frags"} 1`,
		"progqoid_batch_requests_total 1",
		"progqoid_batch_fragments_total 2",
		"progqoid_inflight_requests",
		"progqoid_fragment_bytes_total",
		"progqoid_hot_cache_hits_total",
		"progqoid_hot_cache_misses_total",
		"# TYPE progqoid_requests_total counter",
		"# TYPE progqoid_request_duration_seconds histogram",
		`progqoid_request_duration_seconds_bucket{route="frag",le="+Inf"} 1`,
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
	// Hammer the server while polling Stats: the limiter counters are
	// captured in one critical section, so no snapshot may ever show more
	// in-flight requests than the recorded high-water mark.
	hs, srv, vars := testServer(t, Options{})
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
				resp, err := http.Get(fmt.Sprintf("%s/v1/d/ge/frag/%s/0", hs.URL, vars[0].Name))
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var lastRequests int64
	for time.Now().Before(deadline) {
		st := srv.Stats()
		if st.Inflight > st.MaxConcurrent {
			t.Errorf("torn snapshot: inflight %d > maxConcurrent %d", st.Inflight, st.MaxConcurrent)
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
