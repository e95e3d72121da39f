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
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progqoi/internal/lru"
	"progqoi/internal/obs"
	"progqoi/internal/par"
	"progqoi/internal/retry"
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
	// truncated body, 5xx or 429 (default 3; negative disables retries).
	// On a cluster it bounds extra passes over the endpoints: failing over
	// to another replica is free, and backoff (internal/retry) applies only
	// once every candidate has failed the current pass.
	MaxRetries int
	// CacheBytes bounds the shared fragment cache (default
	// DefaultCacheBytes; negative disables caching).
	CacheBytes int64
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

	// clock times backoff waits, breaker cooldowns and Retry-After dates
	// (default retry.Wall); in-package tests substitute one they drive.
	clock retry.Clock
}

func (o Options) withDefaults() Options {
	o.MaxRetries = retry.Retries(o.MaxRetries)
	if o.clock == nil {
		o.clock = retry.Wall{}
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = DefaultCacheBytes
	} else if o.CacheBytes < 0 {
		o.CacheBytes = 0
	}
	if o.Replication <= 0 {
		o.Replication = DefaultReplication
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
	// Failovers counts fetches served by an endpoint other than their
	// shard's rendezvous primary — each one is a request a healthy
	// single-node path would have lost.
	Failovers int64
	// BreakerOpens counts circuit-open transitions across all endpoints —
	// the number of times a node was demoted for failing
	// breakerThreshold requests in a row (or flunking a half-open probe).
	BreakerOpens int64
	// RetryPasses counts retry budget spent: passes over the endpoint set
	// re-run after a whole pass failed and the backoff wait ended. A wait
	// the caller's context cut short spends none. Zero on a healthy
	// cluster no matter how much plain (free) failover happened.
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

	wireBytes    atomic.Int64
	wireRequests atomic.Int64
	fragsFetched atomic.Int64
	coalesced    atomic.Int64
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

// WireBytes returns Stats().WireBytes without building the rest of the
// snapshot.
func (c *Client) WireBytes() int64 { return c.wireBytes.Load() }

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
	return c.doKeyed(ctx, path, method, path, body, contentType)
}

func fragKey(dataset, vr string, fi int) string {
	return dataset + "\x00" + vr + "\x00" + strconv.Itoa(fi)
}

// item is one fragment of a Fetch, carried from the cache lookup through
// coalescing and sharding to install: key is its cache and coalescing
// key, cl the fetch it owns or waits on, primary whether its sub-batch
// went to its rendezvous primary, and val its payload.
type item struct {
	v, fi   int
	key     string
	cl      *call
	primary bool
	val     []byte
}

// Fetch is the dataset's core.LazyFetch. It fetches want[v]'s fragments
// of every variable v in at most one HTTP round trip per shard: cached
// fragments are installed directly, fragments already being fetched by a
// concurrent session are awaited, and the rest split into per-shard
// sub-batches (one batched POST per cluster node involved) that run as
// tasks on b, so a session's Workers bound is also its bound on
// concurrent POSTs. A fragment listed twice is fetched and installed
// once; one the index does not have fails the call before any request.
func (d *Dataset) Fetch(ctx context.Context, b *par.Budget, want [][]int, install func(v, frag int, payload []byte)) error {
	var items []item
	for v, idxs := range want {
		for _, fi := range idxs {
			if v >= len(d.Vars) || fi < 0 || fi >= len(d.sizes[v]) {
				return fmt.Errorf("client: dataset %s has no fragment %d of variable %d", d.name, fi, v)
			}
			items = append(items, item{v: v, fi: fi, key: fragKey(d.name, d.Vars[v].Name, fi)})
		}
	}
	slices.SortFunc(items, byFragment)
	return d.fetch(ctx, b, slices.CompactFunc(items, func(a, b item) bool { return byFragment(a, b) == 0 }), install)
}

// byFragment orders items by variable, then fragment index.
func byFragment(a, b item) int { return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.fi, b.fi)) }

// fetch is Fetch over distinct items in byFragment order.
func (d *Dataset) fetch(ctx context.Context, b *par.Budget, items []item, install func(v, frag int, payload []byte)) error {
	c := d.c
	// Cache hits are compacted to the front of items, which the loop has
	// already read past.
	hits, owned, waited := items[:0], []item(nil), []item(nil)
	c.mu.Lock()
	for _, it := range items {
		if v, ok := c.cache.Get(it.key); ok {
			it.val = v
			hits = append(hits, it)
		} else if it.cl = c.inflight[it.key]; it.cl != nil {
			c.coalesced.Add(1)
			waited = append(waited, it)
		} else {
			it.cl = &call{done: make(chan struct{})}
			c.inflight[it.key] = it.cl
			owned = append(owned, it)
		}
	}
	c.mu.Unlock()
	for _, it := range hits {
		install(it.v, it.fi, it.val)
	}

	if len(owned) > 0 {
		// Bytes mirror the wireBytes increment below, keeping traced fetch
		// bytes equal to Stats.WireBytes.
		var mf obs.SpanMark
		if tr := obs.TraceFrom(ctx); tr != nil {
			mf = tr.Begin(obs.CatFetch, "frags "+d.name+" x"+strconv.Itoa(len(owned)))
		}
		ferr := d.fetchShards(ctx, b, owned)
		var fetched int64
		c.mu.Lock()
		for _, it := range owned {
			delete(c.inflight, it.key)
			if it.cl.err = ferr; ferr == nil {
				// Clone out of the decoded batch blob: DecodeBatch payloads
				// are subslices of the whole response, and caching them by
				// reference would pin the full blob in memory long after
				// eviction shrank the accounted cache size.
				it.cl.val = bytes.Clone(it.val)
				c.cache.Add(it.key, it.cl.val)
				fetched += int64(len(it.cl.val))
				c.fragsFetched.Add(1)
			}
			close(it.cl.done)
		}
		c.wireBytes.Add(fetched)
		c.mu.Unlock()
		mf.EndBytes(fetched)
		if ferr != nil {
			return ferr
		}
		for _, it := range owned {
			install(it.v, it.fi, it.cl.val)
		}
	}
	var retry []item
	for _, it := range waited {
		select {
		case <-it.cl.done:
		case <-ctx.Done():
			// The owning session's fetch is still in flight; this caller
			// stops waiting without disturbing it.
			return fmt.Errorf("client: coalesced fetch: %w", ctx.Err())
		}
		if err := it.cl.err; err != nil {
			// The owner's context died mid-fetch. That cancellation belongs
			// to the owner, not to this caller: re-fetch under our own live
			// context rather than inheriting an error nobody here caused.
			if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() == nil {
				retry = append(retry, item{v: it.v, fi: it.fi, key: it.key})
				continue
			}
			return fmt.Errorf("client: coalesced fetch: %w", err)
		}
		install(it.v, it.fi, it.cl.val)
	}
	if len(retry) > 0 {
		// Either this call becomes the new owner, or it coalesces onto
		// another live fetch; our own ctx now governs the wait.
		return d.fetch(ctx, b, retry, install)
	}
	return nil
}
