// Package server implements the fragment service side of the paper's
// remote-retrieval scenario (§VI-D): refactored archives live at a storage
// site and are served over HTTP so a compute site can pull exactly the
// bytes each tolerance needs. The service is stdlib-only and speaks these
// route families:
//
//	GET  /healthz                     liveness + serving statistics (JSON)
//	GET  /metrics                     Prometheus text exposition
//	GET  /v1/cluster                  live cluster topology: members, states, epoch
//	POST /v1/cluster/join             node announcement: enter the membership table
//	POST /v1/cluster/heartbeat        liveness refresh + anti-entropy view exchange
//	POST /v1/cluster/leave            clean departure (deregister immediately)
//	POST /v1/cluster/drain            graceful drain (admin-gated)
//	GET  /v1/datasets                 served dataset names (JSON)
//	POST /v1/datasets/reload          hot-publish: re-scan the store (admin-gated)
//	GET  /v1/d/{ds}/index             dataset index: variables + fragment sizes
//	GET  /v1/d/{ds}/meta              retrieval metadata blob (binary, CRC)
//	GET  /v1/d/{ds}/frag/{var}/{idx}  one immutable fragment (ETag, 304)
//	POST /v1/d/{ds}/frags             batched fragment fetch (binary, CRC)
//	GET  /v1/store/keys               raw store passthrough: key list
//	GET  /v1/store/blob/{key}         raw store passthrough: one blob
//
// Fragments are immutable once refactored, so single-fragment responses
// carry strong ETags with far-future cache headers and honor
// If-None-Match. Fragments are entropy-coded at refactor time, so every
// response is identity-encoded with its Content-Length; only the index
// and the metadata blob negotiate gzip, from bytes compressed once per
// catalog load. A semaphore bounds in-flight requests; the high-water
// mark is visible in /healthz. Handlers respect the request context: a
// request cancelled while queued on the semaphore returns 503 without
// consuming a slot, and a batch abandoned mid-assembly stops with 499
// instead of encoding bytes nobody will read.
//
// # Live publishing
//
// The served dataset set is an immutable catalog snapshot swapped
// atomically: POST /v1/datasets/reload (enabled by Options.AdminToken,
// presented as a Bearer token) re-scans the store with the same
// validation startup applies and installs a fresh catalog in one pointer
// swap. Requests in flight keep the snapshot they resolved, and datasets
// whose stored bytes are unchanged are carried into the new catalog
// verbatim — same object, same cache generation — so publishing new
// datasets never interrupts sessions retrieving existing ones. A
// *republished* dataset (same name, new bytes) is a new incarnation with
// new ETags: sessions opened against its predecessor must be reopened. A
// failed reload leaves the serving catalog untouched. Datasets are
// published crash-safely by writing variable blobs first and the
// manifest last (storage.ArchiveWriter), so a packer killed mid-publish
// leaves only ignored orphan blobs.
//
// # Memory model
//
// Startup loads each archive once to build the wire artifacts (index,
// metadata blob, per-fragment ETags) and the byte offset of every
// fragment payload inside its store blob, then drops the payloads.
// Steady-state fragment reads go through a byte-bounded in-memory
// hot-fragment LRU (Options.HotCacheBytes) in front of the store; a miss
// is one ranged store read (storage.RangeReader when the store supports
// it), re-verified against the fragment's recorded ETag so silent disk
// corruption cannot reach the wire. A node therefore serves archives far
// larger than its RAM, with the hot set pinned.
package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progqoi/internal/core"
	"progqoi/internal/lru"
	"progqoi/internal/obs"
	"progqoi/internal/storage"
)

// DefaultMaxInflight bounds concurrent requests when Options.MaxInflight
// is zero.
const DefaultMaxInflight = 64

// DefaultHotCacheBytes bounds the hot-fragment cache when
// Options.HotCacheBytes is zero.
const DefaultHotCacheBytes = 256 << 20

// Options configures a Server.
type Options struct {
	// MaxInflight caps concurrently served requests (default
	// DefaultMaxInflight); excess requests queue on a semaphore.
	MaxInflight int
	// HotCacheBytes bounds the in-memory hot-fragment cache in front of
	// the store (default DefaultHotCacheBytes; negative disables caching,
	// sending every fragment read to the store).
	HotCacheBytes int64
	// Advertise is this node's public base URL, reported at /v1/cluster
	// so clients reached through a load balancer learn the direct address.
	Advertise string
	// Peers are the base URLs of the other nodes of a static cluster,
	// reported at /v1/cluster for client-side endpoint discovery. The
	// server itself never contacts them: sharding and failover are
	// client-side concerns.
	Peers []string
	// LogRequests emits one structured record per request via Log: route,
	// method, path, status, response bytes, duration, request ID, and
	// remote address. Observability probes (/healthz, /metrics) log at
	// debug level so a scraped node stays quiet at the default level.
	LogRequests bool
	// Log receives structured records (request logs when LogRequests is
	// set, plus operational notices like hot publishes). Nil disables
	// logging.
	Log *slog.Logger
	// AdminToken enables the admin surface (POST /v1/datasets/reload) when
	// non-empty: requests must present it as "Authorization: Bearer
	// <token>". Empty keeps the admin routes disabled (403) — hot publish
	// is opt-in per node.
	AdminToken string
	// Tenants enables multi-tenant serving when non-empty: every
	// data-plane request must present one tenant's bearer token, and the
	// tenant's QoS envelope (rate limit, in-flight cap, priority class)
	// applies. The /healthz and /metrics probes stay open, and the
	// reload route keeps its own AdminToken gate. See tenant.go.
	Tenants []Tenant
	// MaxQueue bounds how many admitted requests may wait for a serving
	// slot before the server sheds with 503, expressed in requests per
	// serving slot (default DefaultMaxQueue; negative allows no queueing
	// at all — a request that cannot be served immediately sheds).
	MaxQueue int
	// HeartbeatInterval is how often StartMembership announces this node
	// to every known member and seed (default DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a member may go silent before it is marked
	// suspect and clients stop routing to it (default
	// DefaultSuspectMultiple × HeartbeatInterval).
	SuspectAfter time.Duration
	// RemoveAfter is how long a member may go silent before it is removed
	// from the table entirely (default DefaultRemoveMultiple ×
	// HeartbeatInterval; clamped to at least SuspectAfter).
	RemoveAfter time.Duration
	// Generation orders incarnations of this node's advertised address:
	// a restart must announce a higher generation than its predecessor
	// (the daemon uses the boot time in nanoseconds). Default 1.
	Generation int64
}

// dataset is one loaded archive with its precomputed wire artifacts.
// Fragment payloads are dropped after loading; fragLocs locates each one
// inside its variable's store blob for on-demand ranged reads. A dataset
// is immutable once loaded: hot publish builds new datasets and swaps the
// catalog that maps names to them.
type dataset struct {
	name string
	// gen is the catalog load generation that produced this dataset; it
	// prefixes hot-cache keys so a republished dataset can never be served
	// stale fragment bytes cached under its previous incarnation.
	gen int64
	// fingerprint identifies the dataset's stored bytes (manifest + every
	// variable blob). Reload reuses the previous incarnation verbatim —
	// same object, same gen, same warm cache slice — when it matches.
	fingerprint string
	vars        []*core.Variable // metadata only: fragment payloads dropped
	varIdx      map[string]int
	index       negotiated // JSON Index
	meta        negotiated // EncodeMeta blob
	fragTags    [][]string
	varKeys     []string
	fragLocs    [][]storage.FragmentRange
}

// catalog is one immutable snapshot of the served datasets. Handlers load
// it once per request; Reload installs a replacement with a single atomic
// pointer swap, so in-flight requests (and remote sessions that planned
// against the old metadata) keep working against the snapshot they saw.
type catalog struct {
	datasets map[string]*dataset
	names    []string // sorted
}

// Stats is a snapshot of serving counters, exposed at /healthz. The
// limiter counters (Requests, Inflight, MaxConcurrent) are captured in one
// critical section, so a snapshot can never show Inflight above
// MaxConcurrent — cluster health checks key routing decisions off these.
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

// ReloadResult reports one successful hot publish: the dataset names now
// served and the delta against the previous catalog.
type ReloadResult struct {
	Datasets []string `json:"datasets"`
	Added    []string `json:"added"`
	Removed  []string `json:"removed"`
}

// ClusterInfo is the /v1/cluster payload: this node's live view of the
// cluster. Advertise and Peers predate elastic membership and keep their
// shapes — Peers is the static -peers configuration unioned with every
// known member, so one-shot peer discovery still finds the whole
// cluster. Epoch, Members and Draining carry the live state: Epoch bumps
// on every membership change, Members lists this node first (with its
// generation and state) then peers sorted by address, and Draining
// reports whether this node stopped accepting new sessions.
type ClusterInfo struct {
	Advertise string       `json:"advertise,omitempty"`
	Peers     []string     `json:"peers"`
	Epoch     int64        `json:"epoch,omitempty"`
	Members   []MemberInfo `json:"members,omitempty"`
	Draining  bool         `json:"draining,omitempty"`
}

// routeLabels names the per-route request counters in /metrics order.
var routeLabels = []string{"healthz", "metrics", "cluster", "datasets", "reload", "index", "meta", "frag", "frags", "store"}

// Server is an http.Handler serving every archive found in a storage.Store.
type Server struct {
	store storage.Store
	opts  Options
	mux   *http.ServeMux
	adm   *admitter
	cat   atomic.Pointer[catalog]
	gen   atomic.Int64 // dataset load generations (hot-cache key prefix)
	start time.Time
	hot   *lru.Cache

	// tenants holds per-tenant limiter/accounting state, sorted by name;
	// empty on an anonymous server. The slice is immutable after New.
	tenants      []*tenantState
	unauthorized atomic.Int64

	// reloadMu serializes hot publishes; readers never take it — they see
	// either the old or the new catalog via the atomic pointer.
	reloadMu sync.Mutex

	// memb is the live membership table (see membership.go). The loop
	// plumbing below it is written once by StartMembership and read-only
	// afterwards.
	memb         *membership
	membHC       *http.Client
	membSeeds    []string
	membStop     chan struct{}
	membStopOnce sync.Once
	membWG       sync.WaitGroup
	membStarted  atomic.Bool

	// The limiter counters share one mutex so /healthz and /metrics
	// snapshot them consistently (inflight can never read above maxSeen).
	limMu    sync.Mutex
	requests int64 // guarded by limMu
	inflight int64 // guarded by limMu
	maxSeen  int64 // guarded by limMu

	fragBytes      atomic.Int64
	fragsServed    atomic.Int64
	batchReqs      atomic.Int64
	batchFrags     atomic.Int64
	reloads        atomic.Int64
	reloadFailures atomic.Int64
	datasetsLoaded atomic.Int64
	routeReqs      [10]atomic.Int64 // indexed like routeLabels

	// Latency and size distributions, exposed at /metrics as Prometheus
	// histograms (fixed buckets, stdlib only).
	routeHist   [10]*obs.Histogram // request latency, indexed like routeLabels
	fragsReqHB  *obs.Histogram     // frags request body bytes
	fragsRespHB *obs.Histogram     // frags response bytes
}

// New scans st for archives (keys ending in ".manifest", as written by
// storage.WriteArchive) and builds a server over all of them. Each archive
// is loaded once to precompute wire artifacts and fragment offsets, then
// its payloads are dropped: steady-state reads go through the hot cache in
// front of the store. Reload repeats the scan later with the same
// validation, swapping the catalog atomically. ctx bounds the startup
// store scan — a remote store that hangs on boot is cancellable.
func New(ctx context.Context, st storage.Store, opt Options) (*Server, error) {
	if opt.MaxInflight <= 0 {
		opt.MaxInflight = DefaultMaxInflight
	}
	if opt.HotCacheBytes == 0 {
		opt.HotCacheBytes = DefaultHotCacheBytes
	} else if opt.HotCacheBytes < 0 {
		opt.HotCacheBytes = 0
	}
	if opt.MaxQueue == 0 {
		opt.MaxQueue = DefaultMaxQueue
	} else if opt.MaxQueue < 0 {
		opt.MaxQueue = 0
	}
	if len(opt.Tenants) > 0 {
		// Programmatic tenants get the same validation and defaulting a
		// -tenants file gets; without this, a zero Burst would throttle
		// every request of an in-code tenant.
		var err error
		if opt.Tenants, err = NormalizeTenants(opt.Tenants); err != nil {
			return nil, err
		}
	}
	s := &Server{
		store:    st,
		opts:     opt,
		adm:      newAdmitter(opt.MaxInflight, opt.MaxQueue*opt.MaxInflight),
		start:    time.Now(),
		hot:      lru.New(opt.HotCacheBytes),
		memb:     newMembership(opt),
		membStop: make(chan struct{}),
	}
	now := time.Now()
	for _, t := range opt.Tenants {
		s.tenants = append(s.tenants, newTenantState(t, now))
	}
	s.tenants = sortTenantStates(s.tenants)
	for i := range s.routeHist {
		s.routeHist[i] = obs.NewHistogram(obs.LatencyBuckets()...)
	}
	s.fragsReqHB = obs.NewHistogram(obs.ByteBuckets()...)
	s.fragsRespHB = obs.NewHistogram(obs.ByteBuckets()...)
	cat, err := s.loadCatalog(ctx, nil)
	if err != nil {
		return nil, err
	}
	s.cat.Store(cat)
	s.datasetsLoaded.Add(int64(len(cat.names)))
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.counted("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/cluster", s.counted("cluster", s.handleCluster))
	s.mux.HandleFunc("POST /v1/cluster/join", s.counted("cluster", s.handleClusterJoin))
	s.mux.HandleFunc("POST /v1/cluster/heartbeat", s.counted("cluster", s.handleClusterHeartbeat))
	s.mux.HandleFunc("POST /v1/cluster/leave", s.counted("cluster", s.handleClusterLeave))
	s.mux.HandleFunc("POST /v1/cluster/drain", s.counted("cluster", s.handleClusterDrain))
	s.mux.HandleFunc("GET /v1/datasets", s.counted("datasets", s.handleDatasets))
	s.mux.HandleFunc("POST /v1/datasets/reload", s.counted("reload", s.handleReload))
	s.mux.HandleFunc("GET /v1/d/{ds}/index", s.counted("index", s.handleIndex))
	s.mux.HandleFunc("GET /v1/d/{ds}/meta", s.counted("meta", s.handleMeta))
	s.mux.HandleFunc("GET /v1/d/{ds}/frag/{vr}/{idx}", s.counted("frag", s.handleFragment))
	s.mux.HandleFunc("POST /v1/d/{ds}/frags", s.counted("frags", s.handleBatch))
	s.mux.HandleFunc("GET /v1/store/keys", s.counted("store", s.handleStoreKeys))
	s.mux.HandleFunc("GET /v1/store/blob/{key}", s.counted("store", s.handleStoreBlob))
	return s, nil
}

// loadCatalog scans the store and loads every archive into a fresh catalog
// snapshot. Any invalid dataset fails the whole load — a reload must be
// all-or-nothing so a torn or corrupt publish can never evict the healthy
// catalog already being served. prev (nil at startup) is the catalog being
// replaced: a dataset whose stored bytes are unchanged is carried over
// verbatim, keeping its cache generation warm and its identity stable for
// sessions mid-retrieval.
func (s *Server) loadCatalog(ctx context.Context, prev *catalog) (*catalog, error) {
	keys, err := s.store.Keys(ctx)
	if err != nil {
		return nil, fmt.Errorf("server: list store: %w", err)
	}
	cat := &catalog{datasets: map[string]*dataset{}}
	for _, k := range keys {
		name, ok := strings.CutSuffix(k, ".manifest")
		if !ok {
			continue
		}
		var old *dataset
		if prev != nil {
			old = prev.datasets[name]
		}
		ds, err := s.loadDataset(ctx, name, old)
		if err != nil {
			return nil, err
		}
		cat.datasets[name] = ds
		cat.names = append(cat.names, name)
	}
	sort.Strings(cat.names)
	return cat, nil
}

// loadDataset loads one archive and precomputes its wire artifacts,
// dropping fragment payloads once their ETags and byte offsets are
// recorded. The archive is always re-validated in full (startup-equivalent
// checks); but when its stored bytes fingerprint the same as prev, prev is
// returned instead of the rebuild, so an unchanged dataset keeps its load
// generation — and with it the hot-cache slice and the object identity
// in-flight retrievals depend on.
func (s *Server) loadDataset(ctx context.Context, name string, prev *dataset) (*dataset, error) {
	mraw, err := s.store.Get(ctx, name+".manifest")
	if err != nil {
		return nil, fmt.Errorf("server: load dataset %q: %w", name, err)
	}
	fingerprint := etag(mraw)
	vars, err := storage.ReadArchive(ctx, s.store, name)
	if err != nil {
		return nil, fmt.Errorf("server: load dataset %q: %w", name, err)
	}
	ds := &dataset{name: name, gen: s.gen.Add(1), vars: vars, varIdx: map[string]int{}}
	idx, err := json.Marshal(BuildIndex(name, vars))
	if err != nil {
		return nil, err
	}
	ds.index = newNegotiated(idx)
	ds.meta = newNegotiated(EncodeMeta(vars))
	ds.fragTags = make([][]string, len(vars))
	ds.varKeys = make([]string, len(vars))
	ds.fragLocs = make([][]storage.FragmentRange, len(vars))
	for vi, v := range vars {
		ds.varIdx[v.Name] = vi
		tags := make([]string, len(v.Ref.Fragments))
		for fi, f := range v.Ref.Fragments {
			tags[fi] = etag(f)
		}
		ds.fragTags[vi] = tags
		key := storage.VarKey(name, v.Name)
		raw, err := s.store.Get(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("server: locate fragments of %s/%s: %w", name, v.Name, err)
		}
		locs, err := storage.VariableFragmentRanges(raw)
		if err != nil {
			return nil, fmt.Errorf("server: locate fragments of %s/%s: %w", name, v.Name, err)
		}
		if len(locs) != len(v.Ref.Fragments) {
			return nil, fmt.Errorf("server: %s/%s: %d fragment ranges for %d fragments",
				name, v.Name, len(locs), len(v.Ref.Fragments))
		}
		for fi, loc := range locs {
			if loc.Len != int64(len(v.Ref.Fragments[fi])) {
				return nil, fmt.Errorf("server: %s/%s/%d: range length %d, fragment %d",
					name, v.Name, fi, loc.Len, len(v.Ref.Fragments[fi]))
			}
		}
		ds.varKeys[vi] = key
		ds.fragLocs[vi] = locs
		fingerprint += "/" + etag(raw)
		// Loading is the only time the whole variable is resident: drop
		// the payloads now that the index, ETags and offsets are recorded.
		// Serving pulls them back through the hot cache.
		for fi := range v.Ref.Fragments {
			v.Ref.Fragments[fi] = nil
		}
	}
	ds.fingerprint = fingerprint
	if prev != nil && prev.fingerprint == fingerprint {
		return prev, nil
	}
	return ds, nil
}

// Reload re-scans the store with startup-equivalent validation and
// atomically swaps the serving catalog. Datasets whose stored bytes are
// unchanged are carried over verbatim (same generation, warm cache);
// changed or new ones load under fresh cache generations. On any error
// the old catalog stays installed and the failure is counted. Concurrent
// Reloads serialize.
func (s *Server) Reload(ctx context.Context) (ReloadResult, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.cat.Load()
	cat, err := s.loadCatalog(ctx, old)
	if err != nil {
		s.reloadFailures.Add(1)
		return ReloadResult{}, err
	}
	s.cat.Store(cat)
	s.reloads.Add(1)
	s.datasetsLoaded.Add(int64(len(cat.names)))
	res := ReloadResult{Datasets: append([]string(nil), cat.names...), Added: []string{}, Removed: []string{}}
	for _, n := range cat.names {
		if old.datasets[n] == nil {
			res.Added = append(res.Added, n)
		}
	}
	for _, n := range old.names {
		if cat.datasets[n] == nil {
			res.Removed = append(res.Removed, n)
		}
	}
	return res, nil
}

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

// Datasets returns the currently served dataset names.
func (s *Server) Datasets() []string { return append([]string(nil), s.cat.Load().names...) }

// Stats snapshots the serving counters. The limiter counters are read in
// one critical section — the same one their updates hold — so the snapshot
// is internally consistent: Inflight never exceeds MaxConcurrent and never
// exceeds Requests.
func (s *Server) Stats() Stats {
	s.limMu.Lock()
	requests, inflight, maxSeen := s.requests, s.inflight, s.maxSeen
	s.limMu.Unlock()
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

// countRequest updates the limiter counters under their shared mutex and
// returns a release func for the inflight gauge (nil when track is false).
func (s *Server) countRequest(track bool) func() {
	s.limMu.Lock()
	defer s.limMu.Unlock()
	s.requests++
	if !track {
		return nil
	}
	s.inflight++
	if s.inflight > s.maxSeen {
		s.maxSeen = s.inflight
	}
	return func() {
		s.limMu.Lock()
		s.inflight--
		s.limMu.Unlock()
	}
}

// tenantCtxKey carries the authenticated *tenantState from ServeHTTP to
// the per-route instrumentation in counted.
type tenantCtxKey struct{}

// bearerToken extracts the request's bearer token.
func bearerToken(r *http.Request) (string, bool) {
	return strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
}

// authenticate resolves the request's tenant. On an anonymous server
// (no Options.Tenants) every request passes with a nil tenant. With
// tenants configured, a missing or unknown token fails. The scan always
// visits every tenant — no early exit — so response timing does not
// depend on which tenant matched.
func (s *Server) authenticate(r *http.Request) (*tenantState, bool) {
	if len(s.tenants) == 0 {
		return nil, true
	}
	tok, ok := bearerToken(r)
	if !ok {
		return nil, false
	}
	var match *tenantState
	for _, ts := range s.tenants {
		if TokenEqual(tok, ts.t.Token) {
			match = ts
		}
	}
	return match, match != nil
}

// ServeHTTP implements http.Handler: authenticate, rate-limit, admit,
// count, dispatch. Observability probes bypass authentication and
// admission — a saturated-but-healthy server must still answer
// /healthz and /metrics, and the stats they report need no slot. The
// cluster control plane (/v1/cluster and its sub-routes) gets the same
// treatment: peer heartbeats and topology refreshes are node-to-node
// traffic that must survive tenant saturation, and the one mutating
// route a client could abuse (drain) carries its own AdminToken gate.
// The admin reload route also skips tenant auth for the same reason.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" ||
		r.URL.Path == "/v1/cluster" || strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
		s.countRequest(false)
		s.mux.ServeHTTP(w, r)
		return
	}
	class := 0 // interactive: anonymous and admin requests queue at priority
	var ts *tenantState
	if r.URL.Path != "/v1/datasets/reload" {
		var ok bool
		ts, ok = s.authenticate(r)
		if !ok {
			s.countRequest(false)
			s.unauthorized.Add(1)
			http.Error(w, "unknown or missing tenant token", http.StatusUnauthorized)
			return
		}
	}
	if ts != nil {
		ts.requests.Add(1)
		class = classIndex(ts.t.Class)
		if ok, retryAfter := ts.allow(time.Now()); !ok {
			s.countRequest(false)
			ts.rateLimited.Add(1)
			s.reject429(w, retryAfter)
			return
		}
		if !ts.acquireInflight() {
			s.countRequest(false)
			ts.overInflight.Add(1)
			s.reject429(w, time.Second)
			return
		}
		defer ts.releaseInflight()
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, ts))
	}
	switch err := s.adm.acquire(r.Context(), class); {
	case errors.Is(err, errQueueFull):
		s.countRequest(false)
		if ts != nil {
			ts.shed.Add(1)
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "admission queue full", http.StatusServiceUnavailable)
		return
	case err != nil:
		s.countRequest(false)
		http.Error(w, "canceled while queued", http.StatusServiceUnavailable)
		return
	}
	defer s.adm.release()
	release := s.countRequest(true)
	defer release()
	s.mux.ServeHTTP(w, r)
}

// reject429 rejects an over-limit request with the instant the client
// should try again. Retry-After is integer seconds (RFC 9110), rounded
// up so a compliant client never retries into a still-empty bucket.
func (s *Server) reject429(w http.ResponseWriter, retryAfter time.Duration) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "tenant over rate limit", http.StatusTooManyRequests)
}

// fragment returns one fragment payload: hot-cache hit, or a ranged store
// read verified against the fragment's recorded ETag. Cache keys carry the
// dataset's load generation, so a republished dataset starts from a cold
// slice of the cache instead of inheriting its predecessor's bytes (stale
// entries age out of the LRU).
func (s *Server) fragment(ctx context.Context, ds *dataset, vi, fi int) ([]byte, error) {
	key := strconv.FormatInt(ds.gen, 10) + "\x00" + ds.vars[vi].Name + "\x00" + strconv.Itoa(fi)
	if b, ok := s.hot.Get(key); ok {
		return b, nil
	}
	loc := ds.fragLocs[vi][fi]
	var (
		b   []byte
		err error
	)
	if rr, ok := s.store.(storage.RangeReader); ok {
		b, err = rr.GetRange(ctx, ds.varKeys[vi], loc.Off, loc.Len)
	} else {
		// Store without partial reads: load the variable blob and copy the
		// fragment out. The clone matters: caching a subslice would pin
		// the whole blob's backing array while the cache accounts only the
		// fragment's length, making the byte bound fiction.
		var raw []byte
		raw, err = s.store.Get(ctx, ds.varKeys[vi])
		if err == nil {
			if loc.Off+loc.Len > int64(len(raw)) {
				err = fmt.Errorf("server: %s/%s blob shrank under us", ds.name, ds.vars[vi].Name)
			} else {
				b = bytes.Clone(raw[loc.Off : loc.Off+loc.Len])
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("server: read fragment %s/%s/%d: %w", ds.name, ds.vars[vi].Name, fi, err)
	}
	if got := etag(b); got != ds.fragTags[vi][fi] {
		return nil, fmt.Errorf("server: fragment %s/%s/%d corrupt at rest: etag %s, recorded %s",
			ds.name, ds.vars[vi].Name, fi, got, ds.fragTags[vi][fi])
	}
	s.hot.Add(key, b)
	return b, nil
}

func (s *Server) dataset(w http.ResponseWriter, r *http.Request) *dataset {
	ds, ok := s.cat.Load().datasets[r.PathValue("ds")]
	if !ok {
		http.Error(w, "unknown dataset", http.StatusNotFound)
		return nil
	}
	return ds
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
	metric("progqoid_fragments_served_total", "counter", "Fragments served across single and batched fetches.", s.fragsServed.Load())
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

// handleCluster reports this node's live view of the cluster: the
// membership table (seeded from -advertise/-peers, evolved by
// join/heartbeat/leave/drain), its epoch, and the legacy flat peer list
// for one-shot discovery.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	b, _ := json.Marshal(s.memb.info(s.opts.Peers))
	writeBlob(w, b, "application/json")
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	b, _ := json.Marshal(struct {
		Datasets []string `json:"datasets"`
	}{s.cat.Load().names})
	writeBlob(w, b, "application/json")
}

// handleReload is the hot-publish entry point: admin-gated by
// Options.AdminToken, it re-scans the store and swaps the catalog. 403
// when the admin surface is disabled, 401 on a missing or wrong token,
// 500 (catalog unchanged) when validation rejects the store contents.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.opts.AdminToken == "" {
		http.Error(w, "admin interface disabled (start with an admin token to enable hot publish)", http.StatusForbidden)
		return
	}
	tok, ok := bearerToken(r)
	if !ok || !TokenEqual(tok, s.opts.AdminToken) {
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	res, err := s.Reload(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if s.opts.Log != nil {
		s.opts.Log.Info("reload",
			slog.Any("datasets", res.Datasets),
			slog.Any("added", res.Added),
			slog.Any("removed", res.Removed))
	}
	b, _ := json.Marshal(res)
	writeBlob(w, b, "application/json")
}

// rejectDraining sheds a session-opening request on a draining node.
// Only index and meta — the routes every new session starts with — are
// gated: fragment routes keep serving so in-flight retrievals finish,
// which is the whole point of drain over kill.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.memb.isDraining() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, "node draining: not accepting new sessions", http.StatusServiceUnavailable)
	return true
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	if ds := s.dataset(w, r); ds != nil {
		ds.index.write(w, r, "application/json")
	}
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	if ds := s.dataset(w, r); ds != nil {
		ds.meta.write(w, r, "application/octet-stream")
	}
}

func (s *Server) handleFragment(w http.ResponseWriter, r *http.Request) {
	ds := s.dataset(w, r)
	if ds == nil {
		return
	}
	vi, ok := ds.varIdx[r.PathValue("vr")]
	if !ok {
		http.Error(w, "unknown variable", http.StatusNotFound)
		return
	}
	fi, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil || fi < 0 || fi >= len(ds.fragLocs[vi]) {
		http.Error(w, "fragment index out of range", http.StatusNotFound)
		return
	}
	frag, err := s.fragment(r.Context(), ds, vi, fi)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if revalidated(w, r, ds.fragTags[vi][fi]) {
		return
	}
	writeBlob(w, frag, "application/octet-stream")
	s.fragBytes.Add(int64(len(frag)))
	s.fragsServed.Add(1)
}

// maxBatchBody bounds the batched request JSON.
const maxBatchBody = 1 << 20

// statusClientClosedRequest is nginx's convention for "the client cancelled
// while we were serving"; no stdlib constant exists for it.
const statusClientClosedRequest = 499

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ds := s.dataset(w, r)
	if ds == nil {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err != nil {
		http.Error(w, "request body too large or unreadable", http.StatusBadRequest)
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var frags []BatchFragment
	// Dedupe requested (variable, index) pairs: without it a small JSON
	// body repeating one large fragment index amplifies into an
	// arbitrarily large response. After dedup the response is bounded by
	// the dataset's total fragment bytes.
	type fragID struct {
		vi, fi int
	}
	sent := map[fragID]bool{}
	for _, want := range req.Wants {
		// A cancelled request means the client is gone: stop assembling the
		// batch instead of burning counters on bytes nobody will read.
		if err := r.Context().Err(); err != nil {
			http.Error(w, "request canceled", statusClientClosedRequest)
			return
		}
		vi, ok := ds.varIdx[want.Var]
		if !ok {
			http.Error(w, "unknown variable "+want.Var, http.StatusNotFound)
			return
		}
		for _, fi := range want.Indices {
			if fi < 0 || fi >= len(ds.fragLocs[vi]) {
				http.Error(w, fmt.Sprintf("fragment %s/%d out of range", want.Var, fi), http.StatusNotFound)
				return
			}
			if sent[fragID{vi, fi}] {
				continue
			}
			sent[fragID{vi, fi}] = true
			payload, err := s.fragment(r.Context(), ds, vi, fi)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			frags = append(frags, BatchFragment{Var: want.Var, Index: fi, Payload: payload})
			s.fragBytes.Add(int64(len(payload)))
			s.fragsServed.Add(1)
		}
	}
	s.batchReqs.Add(1)
	s.batchFrags.Add(int64(len(frags)))
	writeBlob(w, EncodeBatch(frags), "application/octet-stream")
}

func (s *Server) handleStoreKeys(w http.ResponseWriter, r *http.Request) {
	keys, err := s.store.Keys(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b, _ := json.Marshal(struct {
		Keys []string `json:"keys"`
	}{keys})
	writeBlob(w, b, "application/json")
}

func (s *Server) handleStoreBlob(w http.ResponseWriter, r *http.Request) {
	blob, err := s.store.Get(r.Context(), r.PathValue("key"))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, storage.ErrNotFound) || errors.Is(err, storage.ErrInvalidKey) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	if !revalidated(w, r, etag(blob)) {
		writeBlob(w, blob, "application/octet-stream")
	}
}

// etag builds a strong validator from content checksum + length.
func etag(b []byte) string {
	return fmt.Sprintf("\"%08x-%x\"", crc32.Checksum(b, crcTable), len(b))
}

// negotiated is a catalog payload that is not already entropy-coded (the
// index JSON, the metadata blob) in both encodings the transport offers.
// It is immutable per catalog load, like its ETags, so the gzip bytes are
// built once there: no request constructs a compressor.
type negotiated struct {
	body, gz   []byte
	tag, gzTag string // strong validators, unique per representation
}

func newNegotiated(body []byte) negotiated {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(body) //nolint:errcheck // bytes.Buffer writes cannot fail
	zw.Close()     //nolint:errcheck
	tag := etag(body)
	return negotiated{body: body, gz: buf.Bytes(), tag: tag, gzTag: strings.TrimSuffix(tag, "\"") + "-gz\""}
}

// write serves the representation the request accepts; a conditional
// request may name either representation's tag.
func (p *negotiated) write(w http.ResponseWriter, r *http.Request, contentType string) {
	w.Header().Set("Vary", "Accept-Encoding")
	if !acceptsGzip(r) {
		if !revalidated(w, r, p.tag, p.gzTag) {
			writeBlob(w, p.body, contentType)
		}
		return
	}
	if !revalidated(w, r, p.gzTag, p.tag) {
		w.Header().Set("Content-Encoding", "gzip")
		writeBlob(w, p.gz, contentType)
	}
}

// revalidated handles the conditional-request half of an immutable
// payload: it sets far-future cache headers and tags[0] as the ETag, and
// answers 304 — reporting true, nothing more to send — when If-None-Match
// names any of tags.
func revalidated(w http.ResponseWriter, r *http.Request, tags ...string) bool {
	h := w.Header()
	h.Set("Cache-Control", "public, max-age=31536000, immutable")
	h.Set("ETag", tags[0])
	for _, cand := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || slices.Contains(tags, cand) {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// writeBlob sends one in-memory payload as is, with its Content-Length.
func writeBlob(w http.ResponseWriter, blob []byte, contentType string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob) //nolint:errcheck // a client disconnect has no one to report to
}

func acceptsGzip(r *http.Request) bool {
	for _, enc := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		e := strings.TrimSpace(enc)
		if e != "gzip" && !strings.HasPrefix(e, "gzip;") {
			continue
		}
		// Honor an explicit refusal: "gzip;q=0" (with any number of
		// trailing zeros) declines the encoding per RFC 9110.
		for _, p := range strings.Split(e, ";")[1:] {
			p = strings.TrimSpace(p)
			if q, ok := strings.CutPrefix(p, "q="); ok && strings.Trim(q, "0.") == "" {
				return false
			}
		}
		return true
	}
	return false
}
