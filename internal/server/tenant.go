// tenant.go — multi-tenant authentication and quality-of-service
// admission for the fragment service.
//
// A server started with Options.Tenants requires every data-plane
// request (everything except the /healthz and /metrics probes, the
// /v1/cluster routes and the admin-gated reload route) to present a
// per-tenant bearer token. Each tenant carries its own QoS envelope:
//
//   - a token-bucket rate limit (requests/second with a burst bound):
//     over-limit requests are rejected with 429 and a Retry-After
//     header telling the client when the bucket will next hold a token;
//   - a per-tenant in-flight cap, also enforced with 429;
//   - a priority class, "interactive" or "bulk", deciding which queue
//     the request waits in when the server is at MaxInflight.
//
// Admission is a two-class queue in front of the serving slots: when a
// slot frees, interactive waiters are always dequeued ahead of bulk
// ones, so small latency-sensitive retrievals are never starved by a
// bulk scan that saturated the server. The queue is bounded
// (Options.MaxQueue); requests arriving at a full queue are shed with
// 503 rather than parked forever.
//
// Token comparisons — tenant tokens, the admin token, progqoid's pprof
// gate — all go through TokenEqual, which hashes both sides to fixed
// width before a constant-time compare, so neither timing nor length
// leaks a secret. The tokencmp analyzer (internal/analysis/tokencmp)
// machine-enforces that no raw string comparison of tokens creeps back.

package server

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progqoi/internal/obs"
)

// Priority classes a tenant can be assigned to.
const (
	// ClassInteractive requests are dequeued ahead of bulk ones when the
	// server is saturated. The default class.
	ClassInteractive = "interactive"
	// ClassBulk requests wait behind every queued interactive request.
	ClassBulk = "bulk"
)

// DefaultMaxQueue bounds the admission queue when Options.MaxQueue is
// zero: 8 waiting requests per serving slot before 503 shedding.
const DefaultMaxQueue = 8

// minTokenLen rejects obviously weak tenant tokens at config load.
const minTokenLen = 8

// Tenant is one tenant's identity and QoS envelope, as loaded from the
// -tenants config file.
type Tenant struct {
	// Name identifies the tenant in metrics labels and access logs.
	Name string `json:"name"`
	// Token is the bearer token the tenant authenticates with.
	Token string `json:"token"`
	// RateLimit is the sustained request rate in requests/second; 0
	// means unlimited.
	RateLimit float64 `json:"rateLimit"`
	// Burst is the token-bucket depth (default: RateLimit rounded up,
	// at least 1). A burst of b admits b back-to-back requests before
	// the sustained rate applies.
	Burst float64 `json:"burst,omitempty"`
	// MaxInflight caps this tenant's concurrently served requests; 0
	// means unlimited (the global MaxInflight still applies).
	MaxInflight int `json:"maxInflight,omitempty"`
	// Class is the admission priority: "interactive" (default) or
	// "bulk".
	Class string `json:"class,omitempty"`
}

// tenantName is the shape a tenant name (and therefore a Prometheus
// label value and log field) may take.
var tenantName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// ParseTenants decodes and validates a tenant config document:
//
//	{"tenants": [
//	  {"name": "dash", "token": "...", "rateLimit": 50, "class": "interactive"},
//	  {"name": "etl",  "token": "...", "rateLimit": 10, "maxInflight": 4, "class": "bulk"}
//	]}
//
// Names and tokens must be unique; tokens must be at least 8 bytes;
// classes must be "interactive" or "bulk" (empty defaults to
// interactive).
func ParseTenants(data []byte) ([]Tenant, error) {
	var doc struct {
		Tenants []Tenant `json:"tenants"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("server: tenants config: %w", err)
	}
	if len(doc.Tenants) == 0 {
		return nil, fmt.Errorf("server: tenants config: no tenants defined")
	}
	return NormalizeTenants(doc.Tenants)
}

// NormalizeTenants validates a tenant set and applies the defaults
// (burst from the rate limit, interactive class), returning a normalized
// copy. ParseTenants runs it on decoded config files and New runs it on
// programmatic Options.Tenants, so both paths enforce the same
// invariants — a tenant handed to New in code gets the exact semantics
// the same tenant would get from a -tenants file.
func NormalizeTenants(tenants []Tenant) ([]Tenant, error) {
	out := append([]Tenant(nil), tenants...)
	names := map[string]bool{}
	for i := range out {
		t := &out[i]
		if !tenantName.MatchString(t.Name) {
			return nil, fmt.Errorf("server: tenant %d: name %q (want %s)", i, t.Name, tenantName)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("server: tenant %q defined twice", t.Name)
		}
		names[t.Name] = true
		if len(t.Token) < minTokenLen {
			return nil, fmt.Errorf("server: tenant %q: token shorter than %d bytes", t.Name, minTokenLen)
		}
		for j := 0; j < i; j++ {
			if TokenEqual(t.Token, out[j].Token) {
				return nil, fmt.Errorf("server: tenants %q and %q share a token", out[j].Name, t.Name)
			}
		}
		if t.RateLimit < 0 || math.IsNaN(t.RateLimit) || math.IsInf(t.RateLimit, 0) {
			return nil, fmt.Errorf("server: tenant %q: rateLimit %v", t.Name, t.RateLimit)
		}
		if t.Burst < 0 || math.IsNaN(t.Burst) || math.IsInf(t.Burst, 0) {
			return nil, fmt.Errorf("server: tenant %q: burst %v", t.Name, t.Burst)
		}
		if t.Burst == 0 {
			t.Burst = math.Max(1, math.Ceil(t.RateLimit))
		}
		if t.MaxInflight < 0 {
			return nil, fmt.Errorf("server: tenant %q: maxInflight %d", t.Name, t.MaxInflight)
		}
		switch t.Class {
		case "":
			t.Class = ClassInteractive
		case ClassInteractive, ClassBulk:
		default:
			return nil, fmt.Errorf("server: tenant %q: class %q (want %q or %q)",
				t.Name, t.Class, ClassInteractive, ClassBulk)
		}
	}
	return out, nil
}

// LoadTenants reads and validates a tenant config file (see
// ParseTenants for the format).
func LoadTenants(path string) ([]Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: tenants config: %w", err)
	}
	return ParseTenants(data)
}

// TokenEqual reports whether a presented bearer token matches the
// expected one. Both sides are hashed to fixed width before the
// constant-time compare, so the check leaks neither content nor length
// of the secret. Every token comparison in the serving path — tenant
// tokens, the admin token, the pprof gate — must go through here (the
// tokencmp analyzer enforces it).
func TokenEqual(presented, want string) bool {
	p := sha256.Sum256([]byte(presented))
	w := sha256.Sum256([]byte(want))
	//progqoivet:allow tokencmp -- the one blessed site: both sides are fixed-width sha256 digests, so no length leak
	return subtle.ConstantTimeCompare(p[:], w[:]) == 1
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

// TenantStats is one tenant's serving counters, exposed at /healthz
// and (per label) at /metrics.
type TenantStats struct {
	Name     string `json:"name"`
	Class    string `json:"class"`
	Requests int64  `json:"requests"`
	// RateLimited counts 429 rejections from the token bucket.
	RateLimited int64 `json:"rateLimited"`
	// OverInflight counts 429 rejections from the per-tenant in-flight cap.
	OverInflight int64 `json:"overInflight"`
	// Shed counts 503 rejections from the bounded admission queue.
	Shed     int64 `json:"shed"`
	Inflight int64 `json:"inflight"`
	Bytes    int64 `json:"bytes"`
}

// tenantState is one tenant's live limiter and accounting state.
type tenantState struct {
	t Tenant

	mu       sync.Mutex
	tokens   float64   // guarded by mu: token-bucket fill
	last     time.Time // guarded by mu: last refill instant
	inflight int64     // guarded by mu: concurrently served requests

	requests     atomic.Int64 // authenticated arrivals, incl. rejected
	rateLimited  atomic.Int64 // 429: token bucket empty
	overInflight atomic.Int64 // 429: per-tenant in-flight cap
	shed         atomic.Int64 // 503: admission queue full
	bytes        atomic.Int64 // response bytes written

	hist *obs.Histogram // request latency, served requests only
}

func newTenantState(t Tenant, now time.Time) *tenantState {
	return &tenantState{
		t:      t,
		tokens: t.Burst,
		last:   now,
		hist:   obs.NewHistogram(obs.LatencyBuckets()...),
	}
}

// allow takes one token from the bucket if available; otherwise it
// reports how long until the next token accrues.
func (ts *tenantState) allow(now time.Time) (ok bool, retryAfter time.Duration) {
	if ts.t.RateLimit <= 0 {
		return true, 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	elapsed := now.Sub(ts.last).Seconds()
	if elapsed > 0 {
		ts.tokens = math.Min(ts.t.Burst, ts.tokens+elapsed*ts.t.RateLimit)
		ts.last = now
	}
	if ts.tokens >= 1 {
		ts.tokens--
		return true, 0
	}
	return false, time.Duration((1 - ts.tokens) / ts.t.RateLimit * float64(time.Second))
}

// acquireInflight claims a per-tenant serving slot, or fails when the
// tenant's cap is reached.
func (ts *tenantState) acquireInflight() bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.t.MaxInflight > 0 && ts.inflight >= int64(ts.t.MaxInflight) {
		return false
	}
	ts.inflight++
	return true
}

func (ts *tenantState) releaseInflight() {
	ts.mu.Lock()
	ts.inflight--
	ts.mu.Unlock()
}

func (ts *tenantState) stats() TenantStats {
	ts.mu.Lock()
	inflight := ts.inflight
	ts.mu.Unlock()
	return TenantStats{
		Name:         ts.t.Name,
		Class:        ts.t.Class,
		Requests:     ts.requests.Load(),
		RateLimited:  ts.rateLimited.Load(),
		OverInflight: ts.overInflight.Load(),
		Shed:         ts.shed.Load(),
		Inflight:     inflight,
		Bytes:        ts.bytes.Load(),
	}
}

// classIndex maps a class name to its admitter queue.
func classIndex(class string) int {
	if class == ClassBulk {
		return 1
	}
	return 0
}

var classLabels = [2]string{ClassInteractive, ClassBulk}

// errQueueFull is returned by admitter.acquire when the bounded
// admission queue is already at capacity — the caller sheds with 503.
var errQueueFull = fmt.Errorf("server: admission queue full")

// admitWaiter is one parked request. Its channel is closed when a
// serving slot is handed to it; ownership of the slot transfers with
// the close.
type admitWaiter struct {
	ch      chan struct{}
	granted bool // written and read only under the owning admitter's mu
}

// admitter is the two-class admission queue in front of the serving
// slots. It replaces the PR 1 semaphore: same bound on concurrently
// served requests, but waiters park in per-class FIFO queues and a
// freed slot always goes to the oldest interactive waiter before any
// bulk one. The total queue is bounded; requests beyond it shed. It is
// the server's one count of occupied slots: slots − free of them are in
// flight, and high is the most there have been at once.
type admitter struct {
	slots   int
	mu      sync.Mutex
	free    int               // guarded by mu: unclaimed serving slots
	high    int               // guarded by mu: high-water mark of slots − free
	queues  [2][]*admitWaiter // guarded by mu: FIFO waiters, [0]=interactive [1]=bulk
	queued  int               // guarded by mu: total parked waiters
	maxQ    int
	waits   [2]atomic.Int64 // requests that had to queue, by class
	granted [2]atomic.Int64 // slots handed to queued waiters, by class
}

func newAdmitter(slots, maxQueue int) *admitter {
	return &admitter{slots: slots, free: slots, maxQ: maxQueue}
}

// acquire claims a serving slot, queueing by class when none is free.
// It returns nil once a slot is owned, errQueueFull when the bounded
// queue is already at capacity, or the context's error if the caller
// gave up while parked.
func (a *admitter) acquire(ctx context.Context, class int) error {
	w, err := a.enqueue(class)
	if err != nil {
		return err
	}
	if w == nil {
		return nil // a free slot was claimed without queueing
	}
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
	}
	// Either unpark cleanly, or — if the grant raced the cancellation —
	// the slot is ours now; pass it straight to the next waiter.
	if a.abandon(class, w) {
		a.release()
	}
	return ctx.Err()
}

// enqueue claims a free serving slot immediately (nil waiter) or parks
// a new waiter in the class queue; errQueueFull when the bounded queue
// is already at capacity.
func (a *admitter) enqueue(class int) (*admitWaiter, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.free > 0 {
		a.free--
		a.high = max(a.high, a.slots-a.free)
		return nil, nil
	}
	if a.queued >= a.maxQ {
		return nil, errQueueFull
	}
	w := &admitWaiter{ch: make(chan struct{})}
	a.queues[class] = append(a.queues[class], w)
	a.queued++
	a.waits[class].Add(1)
	return w, nil
}

// abandon removes a canceled waiter from its queue. It reports true
// when the grant raced the cancellation: the waiter already owns a
// slot, and the caller must release it.
func (a *admitter) abandon(class int, w *admitWaiter) (granted bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		return true
	}
	q := a.queues[class]
	for i, cand := range q {
		if cand == w {
			a.queues[class] = append(q[:i], q[i+1:]...)
			a.queued--
			break
		}
	}
	return false
}

// release returns a serving slot: the oldest interactive waiter gets
// it first, then the oldest bulk one, and only with both queues empty
// does the slot go back to the free pool.
func (a *admitter) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for class := range a.queues {
		if len(a.queues[class]) > 0 {
			w := a.queues[class][0]
			a.queues[class] = a.queues[class][1:]
			a.queued--
			w.granted = true
			a.granted[class].Add(1)
			close(w.ch)
			return
		}
	}
	a.free++
}

// depths snapshots the per-class queue depths.
func (a *admitter) depths() [2]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return [2]int{len(a.queues[0]), len(a.queues[1])}
}

// inUse snapshots the occupied serving slots and their high-water mark in
// one critical section, so inflight never reads above high.
func (a *admitter) inUse() (inflight, high int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.slots - a.free), int64(a.high)
}

// sortTenantStates returns the states sorted by tenant name, for
// deterministic /metrics and /healthz output.
func sortTenantStates(m []*tenantState) []*tenantState {
	out := append([]*tenantState(nil), m...)
	sort.Slice(out, func(i, j int) bool { return out[i].t.Name < out[j].t.Name })
	return out
}
