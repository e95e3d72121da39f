// metrics.go — per-route instrumentation and the two observability
// probes: the /healthz JSON snapshot and the /metrics text exposition.

package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"time"

	"progqoi/internal/obs"
	"progqoi/internal/storage"
)

// routeLabels names the per-route request counters in /metrics order.
var routeLabels = []string{"healthz", "metrics", "cluster", "datasets", "reload", "index", "meta", "frags"}

// countingWriter captures the status code and response byte count as they
// pass through to the underlying ResponseWriter — what the latency, byte
// histograms, and access log report per request.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (cw *countingWriter) WriteHeader(code int) {
	if cw.status == 0 {
		cw.status = code
	}
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	n, err := cw.ResponseWriter.Write(p)
	cw.bytes += int64(n)
	return n, err
}

// counted wraps a handler with its per-route instrumentation: request
// counter, latency histogram, frags byte histograms, X-Request-Id echo,
// and (when enabled) one structured access-log record.
func (s *Server) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	ri := -1
	for i, l := range routeLabels {
		if l == route {
			ri = i
			break
		}
	}
	if ri < 0 {
		panic("server: unknown route label " + route)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.routeReqs[ri].Add(1)
		// Echo a well-formed client request ID so both sides of the wire
		// log the same correlation handle; hostile values are dropped.
		rid := obs.SanitizeRequestID(r.Header.Get(obs.RequestIDHeader))
		if rid != "" {
			w.Header().Set(obs.RequestIDHeader, rid)
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h(cw, r)
		dur := time.Since(start)
		s.routeHist[ri].Observe(dur.Seconds())
		ts, _ := r.Context().Value(tenantCtxKey{}).(*tenantState)
		if ts != nil {
			ts.hist.Observe(dur.Seconds())
			ts.bytes.Add(cw.bytes)
		}
		if route == "frags" {
			if r.ContentLength >= 0 {
				s.fragsReqHB.Observe(float64(r.ContentLength))
			}
			s.fragsRespHB.Observe(float64(cw.bytes))
		}
		if s.opts.LogRequests && s.opts.Log != nil {
			status := cw.status
			if status == 0 {
				status = http.StatusOK
			}
			lvl := slog.LevelInfo
			if route == "healthz" || route == "metrics" {
				lvl = slog.LevelDebug // probes stay quiet at the default level
			}
			attrs := []slog.Attr{
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Int64("bytes", cw.bytes),
				slog.Duration("duration", dur),
				slog.String("request_id", rid),
				slog.String("remote", r.RemoteAddr),
			}
			if ts != nil {
				attrs = append(attrs,
					slog.String("tenant", ts.t.Name),
					slog.String("class", ts.t.Class))
			}
			s.opts.Log.LogAttrs(r.Context(), lvl, "request", attrs...)
		}
	}
}

// Stats is a snapshot of serving counters, exposed at /healthz. Inflight
// and MaxConcurrent are captured in one critical section, so a snapshot
// can never show Inflight above MaxConcurrent — cluster health checks key
// routing decisions off these.
type Stats struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Datasets      int     `json:"datasets"`
	Requests      int64   `json:"requests"`
	Inflight      int64   `json:"inflight"`
	MaxConcurrent int64   `json:"maxConcurrent"`
	FragmentBytes int64   `json:"fragmentBytes"`
	// Hot-fragment cache counters (see Options.HotCacheBytes).
	HotCacheBytes     int64 `json:"hotCacheBytes"`
	HotCacheEntries   int   `json:"hotCacheEntries"`
	HotCacheHits      int64 `json:"hotCacheHits"`
	HotCacheMisses    int64 `json:"hotCacheMisses"`
	HotCacheEvictions int64 `json:"hotCacheEvictions"`
	// Hot-publish counters (see POST /v1/datasets/reload).
	Reloads        int64 `json:"reloads"`
	ReloadFailures int64 `json:"reloadFailures"`
	DatasetsLoaded int64 `json:"datasetsLoaded"`
	// Admission-queue depths by class (see Options.MaxQueue).
	QueuedInteractive int `json:"queuedInteractive"`
	QueuedBulk        int `json:"queuedBulk"`
	// Unauthorized counts data-plane requests rejected 401 for a missing
	// or unknown tenant token (only possible with Options.Tenants set).
	Unauthorized int64 `json:"unauthorized"`
	// Cluster membership state (see membership.go): the epoch of this
	// node's view, how many members it knows (including itself when it
	// has an advertised address), and whether it is draining.
	ClusterEpoch    int64 `json:"clusterEpoch"`
	ClusterMembers  int   `json:"clusterMembers"`
	ClusterDraining bool  `json:"clusterDraining"`
	// Tenants reports per-tenant serving counters, sorted by name; nil
	// on a single-tenant (anonymous) server.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// Stats snapshots the serving counters. The admitter reports in-flight
// requests and their high-water mark from one critical section, and
// Requests is read after it, so Inflight never exceeds MaxConcurrent and
// never exceeds Requests.
func (s *Server) Stats() Stats {
	inflight, maxSeen := s.adm.inUse()
	requests := s.requests.Load()
	hc := s.hot.Stats()
	depths := s.adm.depths()
	mm := s.memb.metrics()
	var tstats []TenantStats
	for _, ts := range s.tenants {
		tstats = append(tstats, ts.stats())
	}
	return Stats{
		QueuedInteractive: depths[0],
		QueuedBulk:        depths[1],
		Unauthorized:      s.unauthorized.Load(),
		ClusterEpoch:      mm.epoch,
		ClusterMembers:    mm.alive + mm.suspect + mm.draining,
		ClusterDraining:   s.memb.isDraining(),
		Tenants:           tstats,
		Status:            "ok",
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Datasets:          len(s.cat.Load().datasets),
		Requests:          requests,
		Inflight:          inflight,
		MaxConcurrent:     maxSeen,
		FragmentBytes:     s.fragBytes.Load(),
		HotCacheBytes:     hc.Bytes,
		HotCacheEntries:   hc.Entries,
		HotCacheHits:      hc.Hits,
		HotCacheMisses:    hc.Misses,
		HotCacheEvictions: hc.Evictions,
		Reloads:           s.reloads.Load(),
		ReloadFailures:    s.reloadFailures.Load(),
		DatasetsLoaded:    s.datasetsLoaded.Load(),
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	b, _ := json.Marshal(s.Stats())
	writeBlob(w, b, "application/json")
}

// handleMetrics renders the Prometheus text exposition format (version
// 0.0.4) with the stdlib only: request counts and latency histograms per
// route, frags request/response byte histograms, batch sizes, cache
// hit/miss/eviction counters, in-flight gauge, bytes served, and Go
// runtime gauges (goroutines, heap, GC).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b strings.Builder
	metric := func(name, typ, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	metric("progqoid_uptime_seconds", "gauge", "Seconds since the server started.", st.UptimeSeconds)
	metric("progqoid_datasets", "gauge", "Datasets served.", st.Datasets)
	metric("progqoid_requests_total", "counter", "HTTP requests received, including observability probes.", st.Requests)
	fmt.Fprintf(&b, "# HELP progqoid_route_requests_total HTTP requests dispatched, by route family.\n"+
		"# TYPE progqoid_route_requests_total counter\n")
	for i, l := range routeLabels {
		fmt.Fprintf(&b, "progqoid_route_requests_total{route=%q} %d\n", l, s.routeReqs[i].Load())
	}
	metric("progqoid_inflight_requests", "gauge", "Requests currently holding a concurrency slot.", st.Inflight)
	metric("progqoid_max_concurrent_requests", "gauge", "High-water mark of concurrent requests.", st.MaxConcurrent)
	metric("progqoid_fragment_bytes_total", "counter", "Fragment payload bytes served.", st.FragmentBytes)
	metric("progqoid_batch_requests_total", "counter", "Batched fragment POSTs answered.", s.batchReqs.Load())
	metric("progqoid_batch_fragments_total", "counter", "Fragments shipped inside batched responses (divide by batch_requests for mean batch size).", s.batchFrags.Load())
	metric("progqoid_hot_cache_bytes", "gauge", "Bytes resident in the hot-fragment cache.", st.HotCacheBytes)
	metric("progqoid_hot_cache_entries", "gauge", "Fragments resident in the hot-fragment cache.", st.HotCacheEntries)
	metric("progqoid_hot_cache_hits_total", "counter", "Fragment reads served from the hot cache.", st.HotCacheHits)
	metric("progqoid_hot_cache_misses_total", "counter", "Fragment reads that went to the store.", st.HotCacheMisses)
	metric("progqoid_hot_cache_evictions_total", "counter", "Fragments evicted from the hot cache under byte pressure.", st.HotCacheEvictions)
	metric("progqoid_reloads_total", "counter", "Successful hot publishes (POST /v1/datasets/reload catalog swaps).", st.Reloads)
	metric("progqoid_reload_failures_total", "counter", "Hot publishes rejected by store validation (catalog kept).", st.ReloadFailures)
	metric("progqoid_datasets_loaded_total", "counter", "Datasets ingested into a serving catalog, at startup and on each reload.", st.DatasetsLoaded)

	// Cluster membership families are always emitted — a solo node is a
	// one-member cluster — so every node's scrape parses identically.
	mm := s.memb.metrics()
	fmt.Fprintf(&b, "# HELP progqoid_cluster_members Cluster members this node knows (including itself), by membership state.\n"+
		"# TYPE progqoid_cluster_members gauge\n"+
		"progqoid_cluster_members{state=\"alive\"} %d\n"+
		"progqoid_cluster_members{state=\"suspect\"} %d\n"+
		"progqoid_cluster_members{state=\"draining\"} %d\n",
		mm.alive, mm.suspect, mm.draining)
	metric("progqoid_cluster_epoch", "gauge", "Membership view epoch: bumps on every join, leave, drain, or state change.", mm.epoch)
	metric("progqoid_cluster_suspect_total", "counter", "Members marked suspect after missed heartbeats.", mm.suspects)
	metric("progqoid_cluster_drains_total", "counter", "Drain transitions this node acknowledged.", mm.drains)
	metric("progqoid_cluster_heartbeats_total", "counter", "Membership heartbeats received from peers.", mm.heartbeats)

	// Admission-queue gauges: how many requests are parked per class
	// right now, plus cumulative queue traffic. A persistently deep bulk
	// queue with an empty interactive one is the QoS design working.
	fmt.Fprintf(&b, "# HELP progqoid_admission_queued Requests parked in the admission queue, by class.\n"+
		"# TYPE progqoid_admission_queued gauge\n"+
		"progqoid_admission_queued{class=%q} %d\nprogqoid_admission_queued{class=%q} %d\n",
		classLabels[0], st.QueuedInteractive, classLabels[1], st.QueuedBulk)
	fmt.Fprintf(&b, "# HELP progqoid_admission_waits_total Requests that had to queue for a serving slot, by class.\n"+
		"# TYPE progqoid_admission_waits_total counter\n")
	for ci, cl := range classLabels {
		fmt.Fprintf(&b, "progqoid_admission_waits_total{class=%q} %d\n", cl, s.adm.waits[ci].Load())
	}
	if len(s.tenants) > 0 {
		metric("progqoid_unauthorized_total", "counter", "Data-plane requests rejected 401 (missing or unknown tenant token).", st.Unauthorized)
		fmt.Fprintf(&b, "# HELP progqoid_tenant_requests_total Authenticated requests received per tenant, including rejected ones.\n"+
			"# TYPE progqoid_tenant_requests_total counter\n")
		for _, t := range st.Tenants {
			fmt.Fprintf(&b, "progqoid_tenant_requests_total{tenant=%q,class=%q} %d\n", t.Name, t.Class, t.Requests)
		}
		fmt.Fprintf(&b, "# HELP progqoid_tenant_rejected_total Per-tenant QoS rejections, by reason: rate (429, token bucket), inflight (429, per-tenant cap), queue (503, shed).\n"+
			"# TYPE progqoid_tenant_rejected_total counter\n")
		for _, t := range st.Tenants {
			fmt.Fprintf(&b, "progqoid_tenant_rejected_total{tenant=%q,reason=\"rate\"} %d\n", t.Name, t.RateLimited)
			fmt.Fprintf(&b, "progqoid_tenant_rejected_total{tenant=%q,reason=\"inflight\"} %d\n", t.Name, t.OverInflight)
			fmt.Fprintf(&b, "progqoid_tenant_rejected_total{tenant=%q,reason=\"queue\"} %d\n", t.Name, t.Shed)
		}
		fmt.Fprintf(&b, "# HELP progqoid_tenant_inflight Requests currently being served per tenant.\n"+
			"# TYPE progqoid_tenant_inflight gauge\n")
		for _, t := range st.Tenants {
			fmt.Fprintf(&b, "progqoid_tenant_inflight{tenant=%q} %d\n", t.Name, t.Inflight)
		}
		fmt.Fprintf(&b, "# HELP progqoid_tenant_bytes_total Response bytes written per tenant.\n"+
			"# TYPE progqoid_tenant_bytes_total counter\n")
		for _, t := range st.Tenants {
			fmt.Fprintf(&b, "progqoid_tenant_bytes_total{tenant=%q} %d\n", t.Name, t.Bytes)
		}
		obs.WriteFamilyHeader(&b, "progqoid_tenant_request_duration_seconds", "histogram", "Served-request latency per tenant.")
		for _, ts := range s.tenants {
			obs.WriteHistogramSeries(&b, "progqoid_tenant_request_duration_seconds",
				`tenant="`+ts.t.Name+`",class="`+ts.t.Class+`"`, ts.hist.Snapshot())
		}
	}

	// Cold-fetch counters, when the backing store reports them (object
	// store backends): wire reads that missed every cache in front of the
	// bucket. Summed bytes reconcile with the trace's store-span bytes.
	if fs, ok := s.store.(storage.FetchStatser); ok {
		cf := fs.FetchStats()
		metric("progqoid_store_cold_fetches_total", "counter", "Object-store wire fetches (cache misses reaching the bucket).", cf.ColdFetches)
		metric("progqoid_store_cold_fetch_bytes_total", "counter", "Bytes fetched cold from the object store.", cf.ColdFetchBytes)
		metric("progqoid_store_cold_fetch_seconds_total", "counter", "Cumulative wall time spent in cold object-store fetches.", cf.ColdFetchSeconds)
	}

	// Latency and size distributions.
	obs.WriteFamilyHeader(&b, "progqoid_request_duration_seconds", "histogram", "Request handling latency, by route family.")
	for i, l := range routeLabels {
		obs.WriteHistogramSeries(&b, "progqoid_request_duration_seconds", `route="`+l+`"`, s.routeHist[i].Snapshot())
	}
	obs.WriteFamilyHeader(&b, "progqoid_frags_request_bytes", "histogram", "Batched fragment POST request body sizes.")
	obs.WriteHistogramSeries(&b, "progqoid_frags_request_bytes", "", s.fragsReqHB.Snapshot())
	obs.WriteFamilyHeader(&b, "progqoid_frags_response_bytes", "histogram", "Batched fragment response sizes as written to the wire.")
	obs.WriteHistogramSeries(&b, "progqoid_frags_response_bytes", "", s.fragsRespHB.Snapshot())

	// Go runtime gauges, so a scrape sees resource pressure without pprof.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metric("progqoid_goroutines", "gauge", "Goroutines currently live in the process.", runtime.NumGoroutine())
	metric("progqoid_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.", ms.HeapAlloc)
	metric("progqoid_heap_sys_bytes", "gauge", "Bytes of heap memory obtained from the OS.", ms.HeapSys)
	metric("progqoid_gc_cycles_total", "counter", "Completed GC cycles.", ms.NumGC)
	metric("progqoid_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String())) //nolint:errcheck
}
