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
//	POST /v1/d/{ds}/frags             batched fragment fetch (binary, CRC)
//
// The index and the metadata blob are immutable per catalog load, so they
// carry strong ETags with far-future cache headers and honor
// If-None-Match. Fragments are entropy-coded at refactor time, so a batch
// is identity-encoded with its Content-Length; only the index and the
// metadata blob negotiate gzip, from bytes compressed once per catalog
// load. The admission queue bounds in-flight requests and is the one count
// of them; its high-water mark is visible in /healthz. Handlers respect
// the request context: a request cancelled while queued for a slot
// returns 503 without consuming one, and a batch abandoned mid-assembly
// stops with 499 instead of encoding bytes nobody will read.
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
// Startup and every reload read each archive once: one store Get per
// manifest and per variable blob (storage.ReadArchiveRanged). The wire
// artifacts (index, metadata blob, per-fragment ETags), the byte offset
// of every fragment payload inside its store blob, and the reload
// fingerprint all come from those bytes; then the payloads are dropped.
// Steady-state fragment reads go through a byte-bounded in-memory
// hot-fragment LRU (Options.HotCacheBytes) in front of the store; a miss
// is one ranged store read (Store.GetRange), re-verified against the
// fragment's recorded ETag so silent disk corruption cannot reach the
// wire. A node therefore serves archives far larger than its RAM, with
// the hot set pinned.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// New refuses one that is not a plain absolute http(s) base URL.
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

	// requests counts every request ServeHTTP receives; the in-flight
	// gauge and its high-water mark live in adm.
	requests       atomic.Int64
	fragBytes      atomic.Int64
	batchReqs      atomic.Int64
	batchFrags     atomic.Int64
	reloads        atomic.Int64
	reloadFailures atomic.Int64
	datasetsLoaded atomic.Int64
	routeReqs      [8]atomic.Int64 // indexed like routeLabels

	// Latency and size distributions, exposed at /metrics as Prometheus
	// histograms (fixed buckets, stdlib only).
	routeHist   [8]*obs.Histogram // request latency, indexed like routeLabels
	fragsReqHB  *obs.Histogram    // frags request body bytes
	fragsRespHB *obs.Histogram    // frags response bytes
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
	if opt.Advertise != "" {
		a, err := normalizeNodeURL(opt.Advertise)
		if err != nil {
			return nil, err
		}
		opt.Advertise = a
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
	s.mux.HandleFunc("POST /v1/d/{ds}/frags", s.counted("frags", s.handleBatch))
	return s, nil
}

// Datasets returns the currently served dataset names.
func (s *Server) Datasets() []string { return append([]string(nil), s.cat.Load().names...) }

// ServeHTTP implements http.Handler: count, authenticate, rate-limit,
// admit, dispatch. Observability probes bypass authentication and
// admission — a saturated-but-healthy server must still answer
// /healthz and /metrics, and the stats they report need no slot. The
// cluster control plane (/v1/cluster and its sub-routes) gets the same
// treatment: peer heartbeats and topology refreshes are node-to-node
// traffic that must survive tenant saturation, and the one mutating
// route a client could abuse (drain) carries its own AdminToken gate.
// The admin reload route also skips tenant auth for the same reason.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" ||
		r.URL.Path == "/v1/cluster" || strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
		s.mux.ServeHTTP(w, r)
		return
	}
	class := 0 // interactive: anonymous and admin requests queue at priority
	var ts *tenantState
	if r.URL.Path != "/v1/datasets/reload" {
		var ok bool
		ts, ok = s.authenticate(r)
		if !ok {
			s.unauthorized.Add(1)
			http.Error(w, "unknown or missing tenant token", http.StatusUnauthorized)
			return
		}
	}
	if ts != nil {
		ts.requests.Add(1)
		class = classIndex(ts.t.Class)
		if ok, retryAfter := ts.allow(time.Now()); !ok {
			ts.rateLimited.Add(1)
			s.reject429(w, retryAfter)
			return
		}
		if !ts.acquireInflight() {
			ts.overInflight.Add(1)
			s.reject429(w, time.Second)
			return
		}
		defer ts.releaseInflight()
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, ts))
	}
	switch err := s.adm.acquire(r.Context(), class); {
	case errors.Is(err, errQueueFull):
		if ts != nil {
			ts.shed.Add(1)
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "admission queue full", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, "canceled while queued", http.StatusServiceUnavailable)
		return
	}
	defer s.adm.release()
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

func (s *Server) dataset(w http.ResponseWriter, r *http.Request) *dataset {
	ds, ok := s.cat.Load().datasets[r.PathValue("ds")]
	if !ok {
		http.Error(w, "unknown dataset", http.StatusNotFound)
		return nil
	}
	return ds
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

// requireAdmin gates an admin route on Options.AdminToken and reports
// whether the request may go on: 403 when the admin surface is disabled,
// with a message naming the action a token would enable, and 401 on a
// missing or wrong bearer token.
func (s *Server) requireAdmin(w http.ResponseWriter, r *http.Request, action string) bool {
	if s.opts.AdminToken == "" {
		http.Error(w, "admin interface disabled (start with an admin token to enable "+action+")", http.StatusForbidden)
		return false
	}
	tok, ok := bearerToken(r)
	if !ok || !TokenEqual(tok, s.opts.AdminToken) {
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return false
	}
	return true
}

// handleReload is the hot-publish entry point: admin-gated by
// requireAdmin, it re-scans the store and swaps the catalog. 500 (catalog
// unchanged) when validation rejects the store contents.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.requireAdmin(w, r, "hot publish") {
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
// gated: batched fragment fetches keep serving so in-flight retrievals
// finish, which is the whole point of drain over kill.
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
	var fragBytes int64
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
			fragBytes += int64(len(payload))
		}
	}
	// Count only a batch that was assembled whole: a 404, 499 or 500 part
	// way through sends none of the fragments read before it.
	s.batchReqs.Add(1)
	s.batchFrags.Add(int64(len(frags)))
	s.fragBytes.Add(fragBytes)
	writeBlob(w, EncodeBatch(frags), "application/octet-stream")
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
