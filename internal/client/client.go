// Package client is the compute-site half of the remote retrieval
// subsystem: a typed HTTP client for the internal/server fragment service
// with bounded retry/backoff, a byte-bounded LRU fragment cache shared by
// every session, and request coalescing so concurrent sessions asking for
// the same fragment share one wire fetch.
//
// The paper's economics (§VI-D) survive the real network because the
// client separates two byte counts: a session's RetrievedBytes (the
// fragment bytes its retrieval loop ingested — what the paper plots) and
// the client's WireBytes (what actually crossed the network). Cache hits
// and coalesced fetches make the second strictly smaller on repeated
// workloads.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progqoi/internal/encoding"
	"progqoi/internal/lru"
	"progqoi/internal/obs"
	"progqoi/internal/server"
)

// DefaultCacheBytes bounds the fragment cache when Options.CacheBytes is 0.
const DefaultCacheBytes = 64 << 20

// Options configures a Client.
type Options struct {
	// HTTPClient overrides the transport (default: stock transport with a
	// 30 s response-header timeout; body reads are not deadlined so large
	// fragments survive slow links).
	HTTPClient *http.Client
	// MaxRetries is the number of re-attempts after a transport error,
	// truncated body, or 5xx (default 3; negative disables retries). On a
	// cluster it bounds extra passes over the endpoints: failing over to
	// another replica is free, and backoff applies only once every
	// candidate has failed the current pass.
	MaxRetries int
	// RetryBackoff is the first retry delay, doubled per attempt
	// (default 50 ms).
	RetryBackoff time.Duration
	// CacheBytes bounds the shared fragment cache (default
	// DefaultCacheBytes; negative disables caching).
	CacheBytes int64
	// ReadAhead pipelines network fetch with decode: after each batched
	// session fetch, up to ReadAhead further fragments per variable (the
	// ones a tightening iteration would request next) are fetched in the
	// background into the shared cache while the session decodes the batch
	// it already has. 0 disables the pipeline. Speculative fragments count
	// toward WireBytes even if never ingested, so on workloads that stop
	// early the wire total can exceed a session's RetrievedBytes.
	ReadAhead int
	// Endpoints are additional base URLs of cluster nodes serving the
	// same archives as the primary base URL; fragment fetches shard over
	// all of them by rendezvous hashing and fail over between them. See
	// the cluster transport notes in cluster.go.
	Endpoints []string
	// Replication is the replica-set size per shard key: the number of
	// rendezvous-preferred endpoints a fragment fetch tries before
	// spilling to the rest of the cluster (default DefaultReplication,
	// clamped to the endpoint count).
	Replication int
	// BreakerCooldown is how long an endpoint's circuit stays open after
	// breakerThreshold consecutive failures before a half-open probe
	// (default DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// DiscoverPeers asks Open to fetch /v1/cluster from the primary
	// endpoint and merge the advertised peers (and alive members, on an
	// elastic cluster) into Endpoints, so a client pointed at one node
	// finds the rest. Discovery is best-effort: nodes without the route
	// are treated as solo.
	DiscoverPeers bool
	// TopologyRefresh enables elastic mode: the client re-resolves the
	// cluster membership every TopologyRefresh by fetching /v1/cluster
	// and swapping in a fresh epoch-numbered view (see view.go), so
	// sessions follow joins, drains, and rolling restarts mid-retrieval.
	// It also arms the fast path: a fully failed retry pass forces an
	// immediate refresh. 0 (the default) keeps the topology fixed for the
	// client's lifetime. Call Close to stop the background refresher.
	TopologyRefresh time.Duration
	// Token is a tenant bearer token sent as "Authorization: Bearer …" on
	// every request. Required against a multi-tenant server (one started
	// with -tenants); ignored by anonymous servers. Empty sends no header.
	Token string
}

func (o Options) withDefaults() Options {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = DefaultCacheBytes
	} else if o.CacheBytes < 0 {
		o.CacheBytes = 0
	}
	if o.Replication <= 0 {
		o.Replication = DefaultReplication
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	return o
}

// Stats is a point-in-time snapshot of the client's wire accounting.
type Stats struct {
	// WireBytes is fragment payload bytes fetched over HTTP — the same
	// unit as a session's RetrievedBytes and netsim's recorder, so the
	// three are directly comparable. Cache hits and coalesced waits
	// contribute nothing. Fragments cross the wire as stored, so this is
	// also what the sockets carried for them, less HTTP framing.
	WireBytes int64
	// WireRequests counts HTTP requests issued, including retries.
	WireRequests int64
	// FragmentsFetched counts fragments that crossed the wire.
	FragmentsFetched int64
	// CacheHits counts fragment lookups served from the local cache.
	CacheHits int64
	// Coalesced counts fragment lookups that piggybacked on another
	// session's in-flight fetch.
	Coalesced int64
	// Speculated counts fragments requested by the read-ahead pipeline
	// (Options.ReadAhead) rather than by a session's current plan.
	Speculated int64
	// Failovers counts fetches served by an endpoint other than their
	// shard's rendezvous primary — each one is a request a healthy
	// single-node path would have lost.
	Failovers int64
	// BreakerOpens counts circuit-open transitions across all endpoints —
	// the number of times a node was demoted for failing
	// breakerThreshold requests in a row (or flunking a half-open probe).
	BreakerOpens int64
	// RetryPasses counts backoff waits spent: full passes over the
	// endpoint set that ended with every candidate failing, forcing the
	// client to sleep and spend retry budget. Zero on a healthy cluster
	// no matter how much plain (free) failover happened.
	RetryPasses int64
	// RateLimited counts 429 responses received. Each one failed over or
	// retried after honoring the server's Retry-After; none tripped a
	// circuit breaker — being throttled proves the node alive.
	RateLimited int64
	// TopologyEpoch numbers the current topology view: it starts at 1 and
	// bumps every time a refresh installs a different routable set.
	TopologyEpoch int64
	// TopologySwaps counts installed view changes after the initial one —
	// how many times the client observed the cluster move.
	TopologySwaps int64
	// Routable lists the current view's endpoint URLs: the cluster's
	// alive members as of the last refresh. A subset of Endpoints, which
	// also keeps endpoints that have left the view.
	Routable []string
	// CacheBytes / CacheEntries / CacheEvictions describe the LRU.
	CacheBytes     int64
	CacheEntries   int
	CacheEvictions int64
	// Endpoints reports per-node traffic and circuit-breaker state, in
	// the order the endpoints were configured.
	Endpoints []EndpointStats
}

// call is one in-flight fragment fetch that coalesced waiters block on.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Client talks to one fragment service — or a cluster of them serving the
// same archives. It is safe for concurrent use and meant to be shared:
// the cache and coalescing work across sessions, and the per-endpoint
// breaker state is what routes every session around a dead node.
type Client struct {
	hc    *http.Client
	opts  Options
	cache *lru.Cache

	// ownTransport is the transport New built because Options.HTTPClient
	// was nil; Close drops its idle connections. Nil for a caller-supplied
	// client, whose connections are the caller's to manage.
	ownTransport *http.Transport

	// topo is the current epoch-numbered topology view (see view.go),
	// swapped whole on membership changes — the client-side mirror of
	// the server's hot-publish catalog swap. Requests re-load it at the
	// start of every retry pass.
	topo atomic.Pointer[clusterView]

	// The endpoint registry: every endpoint this client has ever routed
	// to, in first-seen order. Views reference these canonical objects,
	// so breaker state and counters survive leaving and rejoining.
	epMu    sync.Mutex
	epByURL map[string]*endpoint // guarded by epMu
	epOrder []*endpoint          // guarded by epMu

	// refreshStop ends the background refresher; Close closes it once.
	refreshStop chan struct{}
	refreshWG   sync.WaitGroup
	closeOnce   sync.Once

	mu       sync.Mutex
	inflight map[string]*call // guarded by mu

	idxMu   sync.Mutex
	indexes map[string]*server.Index // guarded by idxMu

	wireBytes    atomic.Int64
	wireRequests atomic.Int64
	fragsFetched atomic.Int64
	coalesced    atomic.Int64
	speculated   atomic.Int64
	failovers    atomic.Int64
	retryPasses  atomic.Int64
	rateLimited  atomic.Int64
	viewSwaps    atomic.Int64
}

// New returns a client for the service at baseURL (e.g.
// "http://host:9123") plus any extra cluster endpoints in opt.Endpoints.
// With Options.TopologyRefresh set it also starts the background
// topology refresher; stop it with Close.
func New(baseURL string, opt Options) (*Client, error) {
	opt = opt.withDefaults()
	c := &Client{
		hc:          opt.HTTPClient,
		opts:        opt,
		cache:       lru.New(opt.CacheBytes),
		inflight:    map[string]*call{},
		indexes:     map[string]*server.Index{},
		epByURL:     map[string]*endpoint{},
		refreshStop: make(chan struct{}),
	}
	if c.hc == nil {
		// Bound how long the server may take to start answering, but not
		// the body read: a whole-response deadline would kill large batch
		// downloads on slow links no matter how healthy the transfer.
		c.ownTransport = http.DefaultTransport.(*http.Transport).Clone()
		c.ownTransport.ResponseHeaderTimeout = 30 * time.Second
		c.hc = &http.Client{Transport: c.ownTransport}
	}
	bases := make([]string, 0, 1+len(opt.Endpoints))
	for _, u := range append([]string{baseURL}, opt.Endpoints...) {
		base := strings.TrimRight(u, "/")
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			return nil, fmt.Errorf("client: base URL %q must be http(s)", u)
		}
		bases = append(bases, base)
	}
	if !c.installView(bases) {
		return nil, fmt.Errorf("client: no usable endpoints in %q", bases)
	}
	if opt.TopologyRefresh > 0 {
		c.refreshWG.Add(1)
		go c.refresher()
	}
	return c, nil
}

// Endpoints returns every endpoint base URL this client knows, in
// first-seen order: the configured ones, then any discovered by
// topology refresh. Endpoints no longer in the routable view stay
// listed (their breaker stats remain meaningful); see Stats.Routable
// for the current view.
func (c *Client) Endpoints() []string {
	eps := c.epSnapshot()
	out := make([]string, len(eps))
	for i, ep := range eps {
		out[i] = ep.base
	}
	return out
}

// Stats snapshots the wire accounting.
func (c *Client) Stats() Stats {
	cs := c.cache.Stats()
	v := c.view()
	st := Stats{
		TopologyEpoch:    v.epoch,
		TopologySwaps:    c.viewSwaps.Load(),
		WireBytes:        c.wireBytes.Load(),
		WireRequests:     c.wireRequests.Load(),
		FragmentsFetched: c.fragsFetched.Load(),
		CacheHits:        cs.Hits,
		Coalesced:        c.coalesced.Load(),
		Speculated:       c.speculated.Load(),
		Failovers:        c.failovers.Load(),
		RetryPasses:      c.retryPasses.Load(),
		RateLimited:      c.rateLimited.Load(),
		CacheBytes:       cs.Bytes,
		CacheEntries:     cs.Entries,
		CacheEvictions:   cs.Evictions,
	}
	for _, ep := range v.eps {
		st.Routable = append(st.Routable, ep.base)
	}
	for _, ep := range c.epSnapshot() {
		es := ep.snapshot()
		st.BreakerOpens += es.Opens
		st.Endpoints = append(st.Endpoints, es)
	}
	return st
}

// Sentinel errors for auth and throttling outcomes, matched by
// errors.Is through *HTTPError so callers branch on what happened
// without parsing status codes out of error strings.
var (
	// ErrUnauthorized is a 401: the request carried no tenant token, or
	// one the server does not know. Not retried — a bad credential does
	// not get better on another replica.
	ErrUnauthorized = errors.New("client: unauthorized")
	// ErrForbidden is a 403: the token is known but not allowed here.
	ErrForbidden = errors.New("client: forbidden")
	// ErrRateLimited is a 429 that survived the whole retry budget: every
	// replica throttled the tenant even after honoring Retry-After.
	ErrRateLimited = errors.New("client: rate limited")
)

// HTTPError reports an HTTP failure status that reached the caller.
type HTTPError struct {
	Status int
	Msg    string
	// RetryAfter is the server's parsed Retry-After hint (zero when the
	// response carried none).
	RetryAfter time.Duration
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Status, strings.TrimSpace(e.Msg))
}

// Is maps status codes onto the package's sentinel errors, so
// errors.Is(err, ErrRateLimited) works on any wrapped *HTTPError.
func (e *HTTPError) Is(target error) bool {
	switch target {
	case ErrUnauthorized:
		return e.Status == http.StatusUnauthorized
	case ErrForbidden:
		return e.Status == http.StatusForbidden
	case ErrRateLimited:
		return e.Status == http.StatusTooManyRequests
	}
	return false
}

// do issues one request with bounded retry/backoff and replica failover.
// Transport errors, truncated bodies, and 5xx responses fail over to the
// next endpoint and retry; other non-200 statuses fail immediately with
// *HTTPError. Non-fragment routes hash by path, so metadata traffic also
// spreads over the cluster deterministically — and may spill to every
// endpoint of the current view, not just a replica set. ctx cancels the
// in-flight request and any backoff wait: once ctx is done no further
// attempts are made and the context's error is returned.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string) ([]byte, error) {
	return c.doKeyed(ctx, path, false, method, path, body, contentType)
}

// Health fetches the service's /healthz stats.
func (c *Client) Health(ctx context.Context) (*server.Stats, error) {
	b, err := c.do(ctx, "GET", "/healthz", nil, "")
	if err != nil {
		return nil, err
	}
	var st server.Stats
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("client: healthz: %w", err)
	}
	return &st, nil
}

// Datasets lists the datasets the service hosts.
func (c *Client) Datasets(ctx context.Context) ([]string, error) {
	b, err := c.do(ctx, "GET", "/v1/datasets", nil, "")
	if err != nil {
		return nil, err
	}
	var out struct {
		Datasets []string `json:"datasets"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("client: datasets: %w", err)
	}
	return out.Datasets, nil
}

// Index fetches (and memoizes — the archive is immutable) one dataset's
// index.
func (c *Client) Index(ctx context.Context, dataset string) (*server.Index, error) {
	c.idxMu.Lock()
	if idx, ok := c.indexes[dataset]; ok {
		c.idxMu.Unlock()
		return idx, nil
	}
	c.idxMu.Unlock()
	b, err := c.do(ctx, "GET", "/v1/d/"+dataset+"/index", nil, "")
	if err != nil {
		return nil, err
	}
	idx := &server.Index{}
	if err := json.Unmarshal(b, idx); err != nil {
		return nil, fmt.Errorf("client: index %s: %w", dataset, err)
	}
	c.idxMu.Lock()
	c.indexes[dataset] = idx
	c.idxMu.Unlock()
	return idx, nil
}

// indexFragSize returns the index-declared size of one fragment, or -1
// when the index does not know it.
func indexFragSize(idx *server.Index, vr string, fi int) int64 {
	for i := range idx.Variables {
		if idx.Variables[i].Name == vr {
			if fi >= 0 && fi < len(idx.Variables[i].FragmentSizes) {
				return idx.Variables[i].FragmentSizes[fi]
			}
			return -1
		}
	}
	return -1
}

func fragKey(dataset, vr string, fi int) string {
	return dataset + "\x00" + vr + "\x00" + strconv.Itoa(fi)
}

// Fragment fetches a single fragment through the cache via the
// single-fragment GET endpoint, routed to the fragment's shard.
func (c *Client) Fragment(ctx context.Context, dataset, vr string, fi int) ([]byte, error) {
	key := fragKey(dataset, vr, fi)
	if v, ok := c.cache.Get(key); ok {
		return v, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The fetch span's Bytes mirrors the wireBytes increment below exactly,
	// so a trace's summed fetch bytes reconcile with Stats.WireBytes. The
	// mark is zero (and free) when the context carries no trace.
	var mf obs.SpanMark
	if tr := obs.TraceFrom(ctx); tr != nil {
		mf = tr.Begin(obs.CatFetch, "frag "+vr+"/"+strconv.Itoa(fi))
	}
	path := "/v1/d/" + dataset + "/frag/" + vr + "/" + strconv.Itoa(fi)
	b, err := c.doKeyed(ctx, shardKey(vr, fi), true, "GET", path, nil, "")
	if err != nil {
		mf.End()
		return nil, err
	}
	if idx, ierr := c.Index(ctx, dataset); ierr == nil {
		if want := indexFragSize(idx, vr, fi); want >= 0 && int64(len(b)) != want {
			mf.End()
			return nil, fmt.Errorf("%w: fragment %s/%s/%d is %d bytes, index says %d",
				encoding.ErrCorrupt, dataset, vr, fi, len(b), want)
		}
	}
	c.wireBytes.Add(int64(len(b)))
	mf.EndBytes(int64(len(b)))
	c.fragsFetched.Add(1)
	c.cache.Add(key, b)
	return b, nil
}

// Fragments fetches a set of fragments in at most one HTTP round trip per
// shard: cached fragments are returned directly, fragments already being
// fetched by a concurrent session are awaited, and the rest split into
// per-shard sub-batches issued concurrently (one batched POST per cluster
// node involved). The result maps variable name → fragment index →
// payload.
func (c *Client) Fragments(ctx context.Context, dataset string, wants map[string][]int) (map[string]map[int][]byte, error) {
	return c.FragmentsWorkers(ctx, dataset, wants, 0)
}

// FragmentsWorkers is Fragments with an explicit bound on concurrent
// per-shard sub-batches (workers <= 0 means GOMAXPROCS). Remote sessions
// pass their retrieval Workers budget here so the wire fan-out never
// exceeds the compute fan-out.
func (c *Client) FragmentsWorkers(ctx context.Context, dataset string, wants map[string][]int, workers int) (map[string]map[int][]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	idx, err := c.Index(ctx, dataset)
	if err != nil {
		return nil, err
	}
	out := map[string]map[int][]byte{}
	put := func(vr string, fi int, v []byte) {
		m := out[vr]
		if m == nil {
			m = map[int][]byte{}
			out[vr] = m
		}
		m[fi] = v
	}
	type pending struct {
		vr  string
		fi  int
		key string
		cl  *call
	}
	var owned, waited []pending
	seen := map[string]bool{}
	c.mu.Lock()
	for _, vr := range sortedKeys(wants) {
		for _, fi := range wants[vr] {
			key := fragKey(dataset, vr, fi)
			if seen[key] {
				continue
			}
			seen[key] = true
			if v, ok := c.cache.Get(key); ok {
				put(vr, fi, v)
				continue
			}
			if cl := c.inflight[key]; cl != nil {
				c.coalesced.Add(1)
				waited = append(waited, pending{vr, fi, key, cl})
				continue
			}
			cl := &call{done: make(chan struct{})}
			c.inflight[key] = cl
			owned = append(owned, pending{vr, fi, key, cl})
		}
	}
	c.mu.Unlock()

	if len(owned) > 0 {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// Bytes mirror the per-fragment wireBytes increments in the install
		// loop below, keeping traced fetch bytes equal to Stats.WireBytes.
		var mf obs.SpanMark
		if tr := obs.TraceFrom(ctx); tr != nil {
			mf = tr.Begin(obs.CatFetch, "frags "+dataset+" x"+strconv.Itoa(len(owned)))
		}
		byVar := map[string][]int{}
		for _, p := range owned {
			byVar[p.vr] = append(byVar[p.vr], p.fi)
		}
		got, ferr := c.fetchShards(ctx, dataset, byVar, workers)
		if ferr == nil {
			for _, p := range owned {
				payload, ok := got[p.key]
				if !ok {
					ferr = fmt.Errorf("client: batch response missing fragment %s/%d", p.vr, p.fi)
					break
				}
				if want := indexFragSize(idx, p.vr, p.fi); want >= 0 && int64(len(payload)) != want {
					ferr = fmt.Errorf("%w: fragment %s/%d is %d bytes, index says %d",
						encoding.ErrCorrupt, p.vr, p.fi, len(payload), want)
					break
				}
			}
		}
		var fetched int64
		c.mu.Lock()
		for _, p := range owned {
			delete(c.inflight, p.key)
			if ferr != nil {
				p.cl.err = ferr
			} else {
				// Clone out of the decoded batch blob: DecodeBatch payloads
				// are subslices of the whole response, and caching them by
				// reference would pin the full blob in memory long after
				// eviction shrank the accounted cache size.
				p.cl.val = bytes.Clone(got[p.key])
				c.cache.Add(p.key, p.cl.val)
				c.wireBytes.Add(int64(len(p.cl.val)))
				fetched += int64(len(p.cl.val))
				c.fragsFetched.Add(1)
			}
			close(p.cl.done)
		}
		c.mu.Unlock()
		mf.EndBytes(fetched)
		if ferr != nil {
			return nil, ferr
		}
		for _, p := range owned {
			put(p.vr, p.fi, p.cl.val)
		}
	}
	var retry map[string][]int
	for _, p := range waited {
		select {
		case <-p.cl.done:
		case <-ctx.Done():
			// The owning session's fetch is still in flight; this caller
			// stops waiting without disturbing it.
			return nil, fmt.Errorf("client: coalesced fetch: %w", ctx.Err())
		}
		if p.cl.err != nil {
			// The owner's context died mid-fetch. That cancellation belongs
			// to the owner, not to this caller: re-fetch under our own live
			// context rather than inheriting an error nobody here caused.
			if isContextErr(p.cl.err) && ctx.Err() == nil {
				if retry == nil {
					retry = map[string][]int{}
				}
				retry[p.vr] = append(retry[p.vr], p.fi)
				continue
			}
			return nil, fmt.Errorf("client: coalesced fetch: %w", p.cl.err)
		}
		put(p.vr, p.fi, p.cl.val)
	}
	if len(retry) > 0 {
		// Either this call becomes the new owner, or it coalesces onto
		// another live fetch; our own ctx now governs the wait.
		got, err := c.Fragments(ctx, dataset, retry)
		if err != nil {
			return nil, err
		}
		for vr, m := range got {
			for fi, v := range m {
				put(vr, fi, v)
			}
		}
	}
	return out, nil
}

// isContextErr reports whether err stems from a cancelled or expired
// context.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func sortedKeys(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
