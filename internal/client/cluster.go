package client

// Cluster transport: a Client may hold several endpoints serving the same
// archives (a progqoid cluster). Every request routes deterministically by
// rendezvous hashing — fragment fetches by (variable, fragment id), other
// routes by path — so each node's hot cache sees a stable shard of the
// key space. The top Replication endpoints of a key's rendezvous order are
// its replica set: the primary serves in the steady state, and connection
// errors, truncated bodies or 5xx responses fail the request over to the
// next replica immediately, spilling past the replica set only when every
// replica is unavailable. A per-endpoint circuit breaker (open after
// breakerThreshold consecutive failures, half-open probe after
// breakerCooldown) keeps a dead node from eating a connection timeout on
// every request; its state is surfaced in Stats.Endpoints.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progqoi/internal/core"
	"progqoi/internal/encoding"
	"progqoi/internal/obs"
	"progqoi/internal/par"
	"progqoi/internal/retry"
	"progqoi/internal/server"
)

// breakerThreshold is how many consecutive endpoint-health failures open
// the circuit.
const breakerThreshold = 3

// breakerCooldown is how long an open circuit rejects an endpoint before
// a half-open probe.
const breakerCooldown = time.Second

// DefaultReplication is the replica-set size when Options.Replication is
// zero: primary plus one failover candidate per shard.
const DefaultReplication = 2

type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case bkOpen:
		return "open"
	case bkHalfOpen:
		return "probing"
	default:
		return "ok"
	}
}

// endpoint is one cluster node with its circuit-breaker state and traffic
// counters.
type endpoint struct {
	base string
	hash uint64 // fnv64(base), precomputed for rendezvous scoring

	mu        sync.Mutex
	state     breakerState // guarded by mu
	failures  int          // guarded by mu; consecutive
	openUntil time.Time    // guarded by mu

	requests atomic.Int64
	errors   atomic.Int64
	opens    atomic.Int64 // circuit-open transitions
}

// admit reports whether the breaker lets a request through right now. An
// open circuit whose cooldown expired flips to half-open and admits
// exactly one probe; the probe's outcome decides what happens next.
func (e *endpoint) admit(now time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case bkClosed:
		return true
	case bkOpen:
		if now.Before(e.openUntil) {
			return false
		}
		e.state = bkHalfOpen
		return true
	default: // half-open: a probe is already in flight
		return false
	}
}

// abortProbe releases the half-open probe slot when a probe ends without
// a verdict (the caller's context died mid-request). The circuit returns
// to open with its already-expired cooldown, so the next admit starts a
// fresh probe immediately — without this, a cancelled probe would pin the
// endpoint in half-open forever and demote it out of every replica set.
func (e *endpoint) abortProbe() {
	e.mu.Lock()
	if e.state == bkHalfOpen {
		e.state = bkOpen
	}
	e.mu.Unlock()
}

// report records a request outcome at now. Only endpoint-health
// failures (connection errors, truncated bodies, 5xx) count toward the
// breaker; any answered request — even a 404 — proves the node alive.
func (e *endpoint) report(ok bool, now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ok {
		e.state, e.failures = bkClosed, 0
		return
	}
	e.failures++
	if e.state == bkHalfOpen || e.failures >= breakerThreshold {
		if e.state != bkOpen {
			e.opens.Add(1)
		}
		e.state = bkOpen
		e.openUntil = now.Add(breakerCooldown)
	}
}

// snapshot returns the breaker state for Stats.
func (e *endpoint) snapshot() EndpointStats {
	e.mu.Lock()
	st := e.state
	e.mu.Unlock()
	return EndpointStats{
		URL:      e.base,
		State:    st.String(),
		Requests: e.requests.Load(),
		Errors:   e.errors.Load(),
		Opens:    e.opens.Load(),
	}
}

// EndpointStats reports one cluster endpoint's health and traffic.
type EndpointStats struct {
	// URL is the endpoint's base URL.
	URL string
	// State is the circuit-breaker state: "ok" (closed), "open" (failing,
	// cooling down), or "probing" (half-open, one trial request allowed).
	State string
	// Requests counts HTTP requests issued to this endpoint.
	Requests int64
	// Errors counts endpoint-health failures (connection errors,
	// truncated bodies, 5xx).
	Errors int64
	// Opens counts this endpoint's circuit-open transitions: how many
	// times it went from serving to cooling down.
	Opens int64
}

// shardKey is the rendezvous key of one fragment: sharding is by
// (variable, fragment id), so a variable's fragments spread across the
// cluster and every client agrees on each fragment's primary.
func shardKey(vr string, fi int) string {
	return vr + "\x00" + strconv.Itoa(fi)
}

// mix64 is the splitmix64 finalizer: full-avalanche mixing of a 64-bit
// word. Rendezvous needs it because comparing raw FNV digests of
// base+key strings is a trap — two bases differing in a few bytes keep a
// near-linear relation through a shared key suffix, and one endpoint can
// win almost every key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s) //nolint:errcheck // fnv never errors
	return h.Sum64()
}

// rankEndpoints orders eps by rendezvous score for key, highest first.
// The order is deterministic across clients, immune to the endpoint
// list's input order, and — because each endpoint scores independently —
// minimally disturbed by membership changes: adding or removing one node
// moves only the keys it wins or held.
func rankEndpoints(eps []*endpoint, key string) []*endpoint {
	if len(eps) == 1 {
		return eps
	}
	type scored struct {
		ep    *endpoint
		score uint64
	}
	kh := mix64(fnv64(key))
	sc := make([]scored, len(eps))
	for i, ep := range eps {
		sc[i] = scored{ep, mix64(ep.hash ^ kh)}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].score != sc[j].score {
			return sc[i].score > sc[j].score
		}
		return sc[i].ep.base < sc[j].ep.base
	})
	out := make([]*endpoint, len(sc))
	for i, s := range sc {
		out[i] = s.ep
	}
	return out
}

// candidates ranks the current topology view's endpoints for key.
func (c *Client) candidates(key string) []*endpoint {
	return rankEndpoints(c.view().eps, key)
}

// parseRetryAfter reads a Retry-After header value: integer seconds (the
// only form our server emits) or an HTTP date, counted from now. Zero when
// absent, negative, unparseable or too large for a Duration — the caller
// falls back to its own backoff.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if secs, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
		if secs < 0 || secs > math.MaxInt64/int64(time.Second) {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		return max(t.Sub(now), 0)
	}
	return 0
}

// attempt issues exactly one HTTP request to one endpoint, classifying
// the outcome: retryable failures (connection errors, truncated bodies,
// 5xx, 429) may fail over; of those, only genuine health failures feed
// the breaker — a 429 proves the node alive and merely throttling this
// tenant. retryAfter carries the server's Retry-After hint on throttled
// and shed responses so pass-level backoff can honor it.
func (c *Client) attempt(ctx context.Context, ep *endpoint, method, path string, body []byte, contentType string) (data []byte, err error, retryable bool, retryAfter time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ep.base+path, rd)
	if err != nil {
		ep.abortProbe()
		return nil, err, false, 0
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.Token)
	}
	if rid := obs.RequestIDFrom(ctx); rid != "" {
		// The retrieval's request ID rides every HTTP attempt, so server
		// access logs correlate with the client-side trace.
		req.Header.Set(obs.RequestIDHeader, rid)
	}
	// One raw http span per attempt (including retries and failovers);
	// Bytes is the raw response size, not wire accounting — fetch spans
	// own that.
	var mh obs.SpanMark
	if tr := obs.TraceFrom(ctx); tr != nil {
		mh = tr.Begin(obs.CatHTTP, method+" "+ep.base+path)
	}
	var nread int64
	defer func() { mh.EndBytes(nread) }()
	c.wireRequests.Add(1)
	ep.requests.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller walked away; surface its reason, not the
			// transport's wrapping of the aborted socket — and give back
			// the probe slot if this request was one.
			ep.abortProbe()
			return nil, fmt.Errorf("client: %s %s: %w", method, path, ctx.Err()), false, 0
		}
		ep.errors.Add(1)
		ep.report(false, c.opts.clock.Now())
		return nil, fmt.Errorf("client: %s %s via %s: %w", method, path, ep.base, err), true, 0
	}
	data, rerr := io.ReadAll(resp.Body)
	nread = int64(len(data))
	resp.Body.Close() //nolint:errcheck
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// Throttled, not broken: the node is healthy and enforcing this
		// tenant's budget, so the breaker stays closed. Another replica
		// has its own bucket — fail over immediately; if every candidate
		// throttles, the pass backoff honors the largest Retry-After.
		ep.report(true, time.Time{})
		c.rateLimited.Add(1)
		ra := parseRetryAfter(resp.Header.Get("Retry-After"), c.opts.clock.Now())
		return nil, fmt.Errorf("client: %s %s via %s: %w", method, path, ep.base,
			&HTTPError{Status: resp.StatusCode, Msg: string(data), RetryAfter: ra}), true, ra
	case resp.StatusCode >= 500:
		now := c.opts.clock.Now()
		ep.errors.Add(1)
		ep.report(false, now)
		return nil, fmt.Errorf("client: %s %s via %s: %s: %s",
				method, path, ep.base, resp.Status, strings.TrimSpace(string(data))), true,
			parseRetryAfter(resp.Header.Get("Retry-After"), now)
	case resp.StatusCode != http.StatusOK:
		ep.report(true, time.Time{})
		return nil, fmt.Errorf("client: %s %s: %w", method, path, &HTTPError{Status: resp.StatusCode, Msg: string(data)}), false, 0
	case rerr != nil:
		if ctx.Err() != nil {
			ep.abortProbe()
			return nil, fmt.Errorf("client: %s %s: %w", method, path, ctx.Err()), false, 0
		}
		ep.errors.Add(1)
		ep.report(false, c.opts.clock.Now())
		return nil, fmt.Errorf("client: %s %s via %s: truncated body: %w", method, path, ep.base, rerr), true, 0
	}
	ep.report(true, time.Time{})
	return data, nil, false, 0
}

// pick returns the endpoint a request for one key tries next, and its
// rank in order (the key's rendezvous ranking), in three sweeps: the
// first repl endpoints (the replica set) whose breakers admit a request,
// then any endpoint whose breaker admits one (healthy spill), and only
// then endpoints with open breakers as a last resort — so a shard whose
// whole replica set is dead reaches a healthy non-replica without first
// eating a doomed dial timeout per open circuit. Endpoints in skip are
// never picked; nil when that leaves none.
func pick(order []*endpoint, repl int, skip map[*endpoint]bool, now time.Time) (*endpoint, int) {
	for sweep := 0; sweep < 3; sweep++ {
		for i, ep := range order {
			if skip[ep] || (sweep == 0 && i >= repl) || (sweep < 2 && !ep.admit(now)) {
				continue
			}
			return ep, i
		}
	}
	return nil, -1
}

// doKeyed issues one request routed by rendezvous key. One retry.Do
// attempt is one pass over the current view's ranking for key, trying
// every endpoint once in pick order; the whole view counts as the
// replica set, so metadata routes may spill anywhere. The ranking is
// re-resolved at the start of every pass (and, in elastic mode, a fully
// failed pass forces a view refresh first), so a retry after a
// membership change routes against the cluster as it is, not as it was.
// Failing over to the next candidate is immediate; backoff applies only
// between full passes, honouring the largest Retry-After of the failed
// pass, and MaxRetries bounds the extra passes.
func (c *Client) doKeyed(ctx context.Context, key, method, path string, body []byte, contentType string) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var data []byte
	err := c.retrying(ctx, func() (time.Duration, bool, error) {
		order := c.candidates(key)
		tried := map[*endpoint]bool{}
		var retryAfter time.Duration
		var lastErr error
		for {
			ep, i := pick(order, len(order), tried, c.opts.clock.Now())
			if ep == nil {
				return retryAfter, true, lastErr
			}
			tried[ep] = true
			b, err, retryable, ra := c.attempt(ctx, ep, method, path, body, contentType)
			if err == nil {
				if i > 0 {
					c.failovers.Add(1)
				}
				data = b
				return 0, false, nil
			}
			if !retryable {
				return 0, false, err
			}
			retryAfter = max(retryAfter, ra)
			lastErr = err
		}
	})
	return data, err
}

// retrying runs pass under the shared retry policy. Every pass after the
// first counts one RetryPasses and, in elastic mode, first re-resolves
// the topology: it runs only once the backoff wait has ended, so a wait
// the context cuts short spends no pass.
func (c *Client) retrying(ctx context.Context, pass func() (time.Duration, bool, error)) error {
	n := 0
	return retry.Do(ctx, c.opts.clock, c.opts.MaxRetries, func() (time.Duration, bool, error) {
		if n++; n > 1 {
			c.retryPasses.Add(1)
			c.refreshAfterFailedPass(ctx)
		}
		return pass()
	})
}

// ClusterInfo fetches a node's live topology — membership table, epoch,
// drain state, plus the legacy advertise/peers fields — for endpoint
// discovery. RefreshTopology is the view-installing wrapper.
func (c *Client) ClusterInfo(ctx context.Context) (*server.ClusterInfo, error) {
	b, err := c.do(ctx, "GET", "/v1/cluster", nil, "")
	if err != nil {
		return nil, err
	}
	var info server.ClusterInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return nil, fmt.Errorf("client: cluster info: %w", err)
	}
	return &info, nil
}

// fetchShards fetches items, in byFragment order, from the cluster and
// stores each payload in its item's val: each fragment routes to the
// endpoint pick chooses from its rendezvous order, the per-endpoint
// sub-batches travel as concurrent POSTs, tasks on b, and a sub-batch
// that fails with a retryable error is re-sharded onto the next replica
// of each of its fragments. Sub-batch outcomes are handled in endpoint
// order, so which error a failed call returns does not depend on which
// POST finished first. Routing state is per round: every round loads the
// current topology view and re-ranks the remaining fragments against it,
// so a view swap mid-call redirects only the fragments not yet fetched.
// One retry.Do attempt is the rounds until every fragment is fetched or
// every endpoint has failed it — plain failover is free — and a failed
// attempt forces a view refresh in elastic mode. A fragment served by an
// endpoint other than its round's primary counts one failover; each
// fragment is fetched successfully exactly once, so Failovers can never
// double-count a fragment across passes or view swaps. Payloads alias the
// response blobs; callers clone before caching.
func (d *Dataset) fetchShards(ctx context.Context, b *par.Budget, items []item) error {
	c := d.c
	remaining := make([]*item, len(items))
	for i := range items {
		remaining[i] = &items[i]
	}
	return c.retrying(ctx, func() (time.Duration, bool, error) {
		excluded := map[*endpoint]bool{}
		var retryAfter time.Duration
		var lastErr error
		for len(remaining) > 0 {
			v := c.view()
			groups := map[*endpoint][]*item{}
			now := c.opts.clock.Now()
			for _, it := range remaining {
				ep, i := pick(rankEndpoints(v.eps, shardKey(d.Vars[it.v].Name, it.fi)), v.repl, excluded, now)
				if ep != nil {
					it.primary = i == 0
					groups[ep] = append(groups[ep], it)
				}
			}
			if len(groups) == 0 {
				// Every endpoint has failed this pass.
				return retryAfter, true, lastErr
			}

			eps := make([]*endpoint, 0, len(groups))
			for ep := range groups {
				eps = append(eps, ep)
			}
			sort.Slice(eps, func(i, j int) bool { return eps[i].base < eps[j].base })
			results := make([]postResult, len(eps))
			b.For(len(eps), func(_, gi int) bool {
				results[gi] = d.post(ctx, eps[gi], groups[eps[gi]])
				return true
			})

			remaining = remaining[:0]
			for gi, res := range results {
				group := groups[eps[gi]]
				switch {
				case res.err == nil:
					for _, it := range group {
						if !it.primary {
							c.failovers.Add(1)
						}
					}
				case res.retryable:
					if ctx.Err() != nil {
						return 0, false, fmt.Errorf("client: batch fetch: %w", ctx.Err())
					}
					lastErr = res.err
					retryAfter = max(retryAfter, res.retryAfter)
					excluded[eps[gi]] = true
					remaining = append(remaining, group...)
				default:
					return 0, false, res.err
				}
			}
			// Back in byFragment order, so every sub-batch lists each of
			// its variables once.
			slices.SortFunc(remaining, func(a, b *item) int { return byFragment(*a, *b) })
		}
		return 0, false, nil
	})
}

// postResult is the outcome of one sub-batch POST, classified as attempt
// classifies it.
type postResult struct {
	err        error
	retryable  bool
	retryAfter time.Duration
}

// post fetches one sub-batch, items in byFragment order, from ep and
// stores each payload in its item's val. A response that does not answer
// exactly the fragments asked for, or a payload whose size differs from
// the index's, is corruption, not an unhealthy endpoint, so it fails the
// call without failover.
func (d *Dataset) post(ctx context.Context, ep *endpoint, items []*item) postResult {
	var req server.BatchRequest
	for i, it := range items {
		if i == 0 || it.v != items[i-1].v {
			req.Wants = append(req.Wants, server.BatchWant{Var: d.Vars[it.v].Name})
		}
		w := &req.Wants[len(req.Wants)-1]
		w.Indices = append(w.Indices, it.fi)
	}
	body, _ := json.Marshal(req)
	blob, err, retryable, ra := d.c.attempt(ctx, ep, "POST", "/v1/d/"+d.name+"/frags", body, "application/json")
	if err != nil {
		return postResult{err, retryable, ra}
	}
	frags, err := server.DecodeBatch(blob)
	if err != nil {
		return postResult{err: err}
	}
	if !d.answers(frags, items) {
		// The response order is the server's to choose (FORMATS.md); ours
		// answers in request order, so this sort is the rare path.
		vi := func(name string) int {
			return slices.IndexFunc(d.Vars, func(v *core.Variable) bool { return v.Name == name })
		}
		slices.SortFunc(frags, func(a, b server.BatchFragment) int {
			return cmp.Or(cmp.Compare(vi(a.Var), vi(b.Var)), cmp.Compare(a.Index, b.Index))
		})
		if !d.answers(frags, items) {
			return postResult{err: fmt.Errorf("%w: batch does not answer the %d fragments asked for", encoding.ErrCorrupt, len(items))}
		}
	}
	for i, it := range items {
		if got, want := int64(len(frags[i].Payload)), d.sizes[it.v][it.fi]; got != want {
			return postResult{err: fmt.Errorf("%w: fragment %s/%d is %d bytes, index says %d",
				encoding.ErrCorrupt, d.Vars[it.v].Name, it.fi, got, want)}
		}
		it.val = frags[i].Payload
	}
	return postResult{}
}

// answers reports whether frags answers items position by position.
func (d *Dataset) answers(frags []server.BatchFragment, items []*item) bool {
	if len(frags) != len(items) {
		return false
	}
	for i, it := range items {
		if frags[i].Index != it.fi || frags[i].Var != d.Vars[it.v].Name {
			return false
		}
	}
	return true
}
