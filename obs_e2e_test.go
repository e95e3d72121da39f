package progqoi

// obs_e2e_test.go proves the observability layer end to end over a real
// HTTP fragment service: a traced remote Session.Do must account every
// wire byte in its fetch spans exactly (including speculative read-ahead),
// propagate its request ID to the server and back, and render a valid
// Chrome trace_event document. The paired benchmarks prove the untraced
// retrieval path pays nothing for the instrumentation.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/obs"
)

// headerRecorder wraps a handler and keeps every X-Request-Id value the
// server receives, so tests can prove client-side IDs reach the service.
type headerRecorder struct {
	next http.Handler
	mu   sync.Mutex
	ids  []string
}

func (h *headerRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id := r.Header.Get(obs.RequestIDHeader); id != "" {
		h.mu.Lock()
		h.ids = append(h.ids, id)
		h.mu.Unlock()
	}
	h.next.ServeHTTP(w, r)
}

func (h *headerRecorder) seen() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.ids...)
}

func TestTraceReconcilesWireBytesEndToEnd(t *testing.T) {
	ds := datagen.GE("GE-trace-e2e", 4, 300, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	rec := &headerRecorder{next: serveArchiveHandler(t, arch, "ge")}
	hs := httptest.NewServer(rec)
	defer hs.Close()

	// ReadAhead makes the reconciliation interesting: speculative fetches
	// increment WireBytes from a background goroutine, so the trace must
	// capture their spans too or the books would not balance.
	rarch, err := Open(context.Background(), hs.URL+"/ge", WithReadAhead(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	sess, err := rarch.Open(WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	res, err := sess.Do(context.Background(), Request{
		Targets: []Target{{QoI: vtot, Tolerance: QoIRanges([]QoI{vtot}, ds.Fields)[0] * 1e-4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ToleranceMet {
		t.Fatal("tolerance not met")
	}
	rarch.WaitReadAhead()

	// The acceptance invariant: summed fetch-span bytes equal the client's
	// wire counter exactly — not approximately — because spans end at the
	// very statements that increment the counter.
	st := rarch.RemoteStats()
	if st.WireBytes == 0 {
		t.Fatal("no wire bytes recorded")
	}
	if got := tr.FetchBytes(); got != st.WireBytes {
		t.Fatalf("trace fetch spans sum to %d bytes, Stats.WireBytes = %d", got, st.WireBytes)
	}

	// Every wire request carried the trace's request ID.
	ids := rec.seen()
	if len(ids) == 0 {
		t.Fatal("server saw no X-Request-Id headers")
	}
	for _, id := range ids {
		if id != tr.ID() {
			t.Fatalf("server saw request ID %q, trace ID is %q", id, tr.ID())
		}
	}

	// The span inventory covers every retrieval phase.
	cats := map[string]int{}
	for _, sp := range tr.Spans() {
		cats[sp.Cat]++
	}
	for _, want := range []string{obs.CatDo, obs.CatPlan, obs.CatFetch, obs.CatDecode, obs.CatCommit, obs.CatEstimate, obs.CatHTTP} {
		if cats[want] == 0 {
			t.Errorf("no %q spans recorded (have %v)", want, cats)
		}
	}

	// The rendered Chrome trace is valid JSON in trace_event form.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) <= len(tr.Spans()) {
		t.Fatalf("trace document has %d events for %d spans (metadata missing?)", len(doc.TraceEvents), len(tr.Spans()))
	}

	// The response echoed the request ID back (header round trip).
	req, err := http.NewRequest("GET", hs.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "abc-123" {
		t.Fatalf("echoed request ID %q, want %q", got, "abc-123")
	}
}

// TestTraceSharedAcrossSequentialSessions checks a single Trace can record
// several sessions' retrievals and still reconcile against the cumulative
// wire counter.
func TestTraceSharedAcrossSequentialSessions(t *testing.T) {
	ds := datagen.GE("GE-trace-shared", 3, 200, 4)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	hs := serveArchive(t, arch, "ge")
	rarch, err := Open(context.Background(), hs.URL+"/ge")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	vtot := TotalVelocity(0, 1, 2)
	rng := QoIRanges([]QoI{vtot}, ds.Fields)[0]
	for _, rel := range []float64{1e-2, 1e-4} {
		sess, err := rarch.Open(WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Do(context.Background(), Request{
			Targets: []Target{{QoI: vtot, Tolerance: rng * rel}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tr.FetchBytes(), rarch.RemoteStats().WireBytes; got != want {
		t.Fatalf("shared trace fetch bytes %d != cumulative wire bytes %d", got, want)
	}
}

// TestObsClusterMetricsE2E scrapes /metrics from every node of a live
// 3-node cluster in the middle of a traced Session.Do, runs the output
// through the strict exposition parser, and checks the observability
// families are present with metadata and the counters move. This is the
// in-process twin of the obs-e2e CI step.
func TestObsClusterMetricsE2E(t *testing.T) {
	ds := datagen.GE("GE-obs-cluster", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	nodes := startCluster(t, arch, "ge", 3)

	scrape := func(url string) map[string]*obs.MetricFamily {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
			t.Fatalf("metrics Content-Type %q, want %q", got, want)
		}
		fams, err := obs.ParseExposition(resp.Body)
		if err != nil {
			t.Fatalf("%s/metrics failed strict exposition parse: %v", url, err)
		}
		return fams
	}

	rarch, err := Open(context.Background(), nodes[0].URL+"/ge",
		WithEndpoints(nodes[1].URL, nodes[2].URL))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	sess, err := rarch.Open(WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}

	// Scrape every node mid-retrieval: the first OnProgress callback fires
	// between iterations, while the session holds live server-side state.
	var mid []map[string]*obs.MetricFamily
	req := clusterRequest(t, ds.FieldNames)
	req.OnProgress = func(it Iteration) {
		if mid != nil {
			return
		}
		for _, n := range nodes {
			mid = append(mid, scrape(n.URL))
		}
	}
	if _, err := sess.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if mid == nil {
		t.Fatal("OnProgress never fired; no mid-retrieval scrape happened")
	}

	wantFamilies := map[string]string{
		"progqoid_requests_total":           "counter",
		"progqoid_route_requests_total":     "counter",
		"progqoid_request_duration_seconds": "histogram",
		"progqoid_frags_request_bytes":      "histogram",
		"progqoid_frags_response_bytes":     "histogram",
		"progqoid_fragment_bytes_total":     "counter",
		"progqoid_uptime_seconds":           "gauge",
		"progqoid_goroutines":               "gauge",
		"progqoid_heap_alloc_bytes":         "gauge",
		"progqoid_gc_pause_seconds_total":   "counter",
		// Elastic membership families are always exposed, even on a solo
		// static node (zero-valued), so dashboards need no existence checks.
		"progqoid_cluster_members":          "gauge",
		"progqoid_cluster_epoch":            "gauge",
		"progqoid_cluster_suspect_total":    "counter",
		"progqoid_cluster_drains_total":     "counter",
		"progqoid_cluster_heartbeats_total": "counter",
	}
	for i, fams := range mid {
		for name, typ := range wantFamilies {
			f, ok := fams[name]
			if !ok {
				t.Errorf("node %d: family %s missing mid-retrieval", i, name)
				continue
			}
			if f.Type != typ {
				t.Errorf("node %d: %s TYPE %q, want %q", i, name, f.Type, typ)
			}
			if f.Help == "" {
				t.Errorf("node %d: %s has no HELP", i, name)
			}
			if f.Samples == 0 {
				t.Errorf("node %d: %s exposes no samples", i, name)
			}
		}
	}

	// After the Do completes, the latency histogram must have counted the
	// fragment traffic this retrieval generated on at least one node.
	moved := false
	for _, n := range nodes {
		fams := scrape(n.URL)
		if f := fams["progqoid_request_duration_seconds"]; f != nil && f.Samples > 0 {
			moved = true
		}
	}
	if !moved {
		t.Error("no node's request_duration histogram recorded any samples")
	}
}
