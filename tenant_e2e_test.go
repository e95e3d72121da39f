package progqoi

// tenant_e2e_test.go proves the multi-tenant QoS envelope end to end
// against a real 3-node in-process cluster under a pinned mixed-tenant
// load:
//
//   - a bulk tenant floods every serving slot while an interactive
//     tenant probes: the interactive p99 must stay within a small
//     multiple of the bulk p99 (the two-class admission queue working);
//   - a deliberately over-limit tenant trips the token bucket, absorbs
//     429 + Retry-After, and still finishes every retrieval with
//     results bit-identical to a local session;
//   - per-tenant counters scraped from every node's /metrics must
//     reconcile exactly with the client side: the cluster-wide sum of
//     progqoid_tenant_requests_total{tenant=X} equals the HTTP requests
//     tenant X's sessions issued (retries and rejections included).

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"progqoi/internal/datagen"
	"progqoi/internal/obs"
	"progqoi/internal/server"
)

// tenantLoad is one tenant of the pinned scenario: its server-side QoS
// envelope, how many concurrent sessions run under its identity, and how
// many Do calls each session issues back to back.
type tenantLoad struct {
	tenant             server.Tenant
	sessions, requests int
}

// tenantLoads is the pinned scenario's load: one bulk tenant flooding
// wide-open sessions, one interactive tenant probing with small bursts,
// and one deliberately over-limit tenant.
var tenantLoads = []tenantLoad{
	{server.Tenant{Name: "bulk-flood", Token: "bench-bulk-flood-token", RateLimit: 10000, Class: server.ClassBulk}, 6, 4},
	{server.Tenant{Name: "interactive", Token: "bench-interactive-token", RateLimit: 10000, Class: server.ClassInteractive}, 2, 6},
	// One token per node, refilled at 1/s: the back-to-back index+meta
	// fetches at session open alone guarantee a 429 on any hardware (no
	// think time between them), so the scenario deterministically
	// exercises 429 + Retry-After recovery — and must still finish
	// bit-identically.
	{server.Tenant{Name: "over-limit", Token: "bench-over-limit-token", RateLimit: 1, Burst: 1, Class: server.ClassInteractive}, 1, 3},
}

// toleranceAt is request r's tolerance for every tenant. A session walks
// the paper's progressive workload: its first request at 100x the final
// 2e-3, its second at 10x, the rest at 1x, so every request retrieves a
// real residual rather than replaying a warm plan.
func toleranceAt(r int) float64 { return 2e-3 * []float64{100, 10, 1}[min(r, 2)] }

// tenantTally accumulates one tenant's client-side ledger across its
// sessions.
type tenantTally struct {
	mu         sync.Mutex
	lat        []time.Duration // completed Do latencies
	wire, rlim int64           // summed client WireRequests and RateLimited
}

// tenantRequestsRe extracts per-tenant request counters from one node's
// exposition text.
var tenantRequestsRe = regexp.MustCompile(`(?m)^progqoid_tenant_requests_total\{tenant="([^"]+)",class="[^"]+"\} (\d+)$`)

func TestTenantQoSEndToEnd(t *testing.T) {
	ctx := context.Background()
	ds := datagen.GE("GE-tenants", 4, 220, 7)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]server.Tenant, len(tenantLoads))
	for i, tl := range tenantLoads {
		tenants[i] = tl.tenant
	}
	// Few slots per node so bulk load actually contends with the
	// interactive probe in the admission queue.
	nodes := startCluster(t, arch, "ge", 3, server.Options{MaxInflight: 4, Tenants: tenants})

	// Sessions cycle through three QoI mixes — total velocity only,
	// derived temperature only, and both — so the cluster sees
	// heterogeneous fragment demand, not one hot plan.
	vtot := TotalVelocity(0, 1, 2)
	temp, err := ParseQoI("T", "Pressure/(287.1*Density)", ds.FieldNames)
	if err != nil {
		t.Fatal(err)
	}
	mixes := [][]QoI{{vtot}, {temp}, {vtot, temp}}
	request := func(mix, r int) Request {
		var req Request
		for _, q := range mixes[mix] {
			req.Targets = append(req.Targets, Target{QoI: q, Tolerance: toleranceAt(r)})
		}
		return req
	}

	// Local references for the bit-identity checks. A session's request
	// sequence is stateful (each request retrieves only the residual the
	// tighter tolerance needs), so every (mix, request) reference is
	// replayed on a fresh local session exactly as the remote sessions
	// run it.
	maxRequests := 0
	for _, tl := range tenantLoads {
		maxRequests = max(maxRequests, tl.requests)
	}
	var refs [3][]*Result
	for mix := range refs {
		lsess, err := arch.Open()
		if err != nil {
			t.Fatal(err)
		}
		for r := range maxRequests {
			res, err := lsess.Do(ctx, request(mix, r))
			if err != nil {
				t.Fatalf("reference retrieval: %v", err)
			}
			refs[mix] = append(refs[mix], keepData(res))
		}
	}

	// runSession runs one session as an independent user — its own
	// client, cache disabled so every Do pays the wire — and returns its
	// first failure: it runs on its own goroutine, where t.Fatal must not
	// be called.
	runSession := func(tl tenantLoad, si int, tally *tenantTally) error {
		rarch, err := Open(ctx, nodes[0].URL+"/ge", WithEndpoints(nodes[1].URL, nodes[2].URL),
			WithToken(tl.tenant.Token), WithCache(-1))
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		defer func() {
			st := rarch.RemoteStats()
			tally.mu.Lock()
			tally.wire += st.WireRequests
			tally.rlim += st.RateLimited
			tally.mu.Unlock()
		}()
		sess, err := rarch.Open()
		if err != nil {
			return err
		}
		for r := range tl.requests {
			t0 := time.Now()
			res, err := sess.Do(ctx, request(si%3, r))
			if err != nil {
				return fmt.Errorf("request %d: %w", r, err)
			}
			tally.mu.Lock()
			tally.lat = append(tally.lat, time.Since(t0))
			tally.mu.Unlock()
			if err := sameResult(refs[si%3][r], res); err != nil {
				return fmt.Errorf("request %d diverged from local reference: %w", r, err)
			}
		}
		return nil
	}
	tallies := make([]tenantTally, len(tenantLoads))
	var wg sync.WaitGroup
	for ti, tl := range tenantLoads {
		for si := range tl.sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := runSession(tl, si, &tallies[ti]); err != nil {
					t.Errorf("tenant %s session %d: %v", tl.tenant.Name, si, err)
				}
			}()
		}
	}
	wg.Wait()
	// Every session of every tenant finished, bit-identical to the local
	// reference.
	if t.Failed() {
		t.FailNow()
	}
	byName := map[string]*tenantTally{}
	for ti, tl := range tenantLoads {
		if len(tallies[ti].lat) == 0 {
			t.Fatalf("tenant %s completed no requests", tl.tenant.Name)
		}
		byName[tl.tenant.Name] = &tallies[ti]
	}

	// The over-limit tenant must actually have been throttled — and, per
	// the block above, recovered through 429 + Retry-After.
	if byName["over-limit"].rlim == 0 {
		t.Fatal("over-limit tenant was never rate-limited: the scenario is not exercising 429 recovery")
	}
	for _, name := range []string{"bulk-flood", "interactive"} {
		if rl := byName[name].rlim; rl != 0 {
			t.Fatalf("tenant %s rate-limited %d times: wide-open tenants must not throttle", name, rl)
		}
	}

	// The interactive tenant probes while bulk saturates every slot; the
	// priority queue must keep its tail latency in the bulk tenant's
	// neighborhood; a generous factor keeps tier-1 robust on slow shared
	// runners.
	bulkP99, interP99 := byName["bulk-flood"].p99(), byName["interactive"].p99()
	if ceiling := max(2*bulkP99, 0.75); interP99 > ceiling {
		t.Fatalf("interactive p99 %.3fs over bulk-saturated ceiling %.3fs (bulk p99 %.3fs): bulk load is starving interactive",
			interP99, ceiling, bulkP99)
	}

	// Reconcile the server-side ledger with the client-side one. Each
	// node's /metrics must parse strictly, and the cluster-wide sum of
	// per-tenant request counters must equal the HTTP requests that
	// tenant's sessions issued — rejections and retries included, so the
	// two ledgers match to the request, not approximately.
	metricTotals := map[string]int64{}
	statTotals := map[string]int64{}
	for i, n := range nodes {
		text := scrapeMetrics(t, n.URL)
		if _, err := obs.ParseExposition(bytes.NewReader(text)); err != nil {
			t.Fatalf("node %d exposition: %v", i, err)
		}
		matches := tenantRequestsRe.FindAllSubmatch(text, -1)
		if len(matches) != len(tenantLoads) {
			t.Fatalf("node %d exposes %d tenant request series, want %d", i, len(matches), len(tenantLoads))
		}
		for _, m := range matches {
			v, err := strconv.ParseInt(string(m[2]), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			metricTotals[string(m[1])] += v
		}
		for _, ts := range n.Config.Handler.(*server.Server).Stats().Tenants {
			statTotals[ts.Name] += ts.Requests
		}
	}
	for name, tally := range byName {
		if got := metricTotals[name]; got != tally.wire {
			t.Errorf("tenant %s: cluster metrics count %d requests, clients sent %d", name, got, tally.wire)
		}
		if got := statTotals[name]; got != metricTotals[name] {
			t.Errorf("tenant %s: /metrics says %d, Stats says %d", name, metricTotals[name], got)
		}
	}
}

// p99 is the nearest-rank 99th percentile of the tally's latencies, in
// seconds.
func (tl *tenantTally) p99() float64 {
	slices.Sort(tl.lat)
	return tl.lat[int(math.Ceil(0.99*float64(len(tl.lat))))-1].Seconds()
}

// TestScenarioTenantsAreValid pins that the scenario's tenant set passes
// the same validation progqoid applies to a -tenants file.
func TestScenarioTenantsAreValid(t *testing.T) {
	var tenants []server.Tenant
	for _, tl := range tenantLoads {
		tenants = append(tenants, tl.tenant)
	}
	norm, err := server.NormalizeTenants(tenants)
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range norm {
		if tn.Class != server.ClassInteractive && tn.Class != server.ClassBulk {
			t.Fatalf("tenant %d normalized to class %q", i, tn.Class)
		}
	}
}
