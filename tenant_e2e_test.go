package progqoi_test

// tenant_e2e_test.go proves the multi-tenant QoS envelope end to end
// against a real 3-node in-process cluster, using the pinned
// mixed-tenant scenario of internal/bench:
//
//   - a bulk tenant floods every serving slot while an interactive
//     tenant probes: the interactive p99 must stay within a small
//     multiple of the bulk p99 (the two-class admission queue working);
//   - a deliberately over-limit tenant trips the token bucket, absorbs
//     429 + Retry-After, and still finishes every retrieval with
//     results bit-identical to a local session (RunAgainst fails the
//     session on any divergence);
//   - per-tenant counters scraped from every node's /metrics must
//     reconcile exactly with the client side: the cluster-wide sum of
//     progqoid_tenant_requests_total{tenant=X} equals the HTTP requests
//     tenant X's sessions issued (retries and rejections included).
//
// This test lives in package progqoi_test so it can drive the public
// API through internal/bench without an import cycle.

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"progqoi/internal/bench"
	"progqoi/internal/obs"
	"progqoi/internal/server"
)

// tenantRequestsRe extracts per-tenant request counters from one node's
// exposition text.
var tenantRequestsRe = regexp.MustCompile(`(?m)^progqoid_tenant_requests_total\{tenant="([^"]+)",class="[^"]+"\} (\d+)$`)

func TestTenantQoSEndToEnd(t *testing.T) {
	ctx := context.Background()
	sc := bench.DefaultScenario()
	cl, err := bench.StartCluster(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sum, err := bench.RunAgainst(ctx, sc, cl)
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]bench.TenantSummary{}
	for _, ts := range sum.Tenants {
		byName[ts.Name] = ts
	}

	// Every session of every tenant finished, and finished bit-identical
	// to the local reference (a divergence fails the session inside
	// RunAgainst).
	for _, ts := range sum.Tenants {
		if ts.FailedSessions != 0 {
			t.Fatalf("tenant %s: %d failed sessions: %v", ts.Name, ts.FailedSessions, ts.Errors)
		}
		if ts.Requests == 0 {
			t.Fatalf("tenant %s completed no requests", ts.Name)
		}
	}

	// The over-limit tenant must actually have been throttled — and, per
	// the block above, recovered through 429 + Retry-After.
	if rl := byName["over-limit"].RateLimited; rl == 0 {
		t.Fatal("over-limit tenant was never rate-limited: the scenario is not exercising 429 recovery")
	}
	for _, name := range []string{"bulk-flood", "interactive"} {
		if rl := byName[name].RateLimited; rl != 0 {
			t.Fatalf("tenant %s rate-limited %d times: wide-open tenants must not throttle", name, rl)
		}
	}

	// The interactive tenant probes while bulk saturates every slot; the
	// priority queue must keep its tail latency in the bulk tenant's
	// neighborhood; a generous factor keeps tier-1 robust on slow shared
	// runners.
	bulkP99, interP99 := byName["bulk-flood"].P99, byName["interactive"].P99
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
	for i := range sc.Nodes {
		text, err := cl.Metrics(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ParseExposition(strings.NewReader(text)); err != nil {
			t.Fatalf("node %d exposition: %v", i, err)
		}
		matches := tenantRequestsRe.FindAllStringSubmatch(text, -1)
		if len(matches) != len(sc.Tenants) {
			t.Fatalf("node %d exposes %d tenant request series, want %d", i, len(matches), len(sc.Tenants))
		}
		for _, m := range matches {
			n, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			metricTotals[m[1]] += n
		}
		for _, ts := range cl.Stats(i).Tenants {
			statTotals[ts.Name] += ts.Requests
		}
	}
	for _, ts := range sum.Tenants {
		if got := metricTotals[ts.Name]; got != ts.WireRequests {
			t.Errorf("tenant %s: cluster metrics count %d requests, clients sent %d", ts.Name, got, ts.WireRequests)
		}
		if got := statTotals[ts.Name]; got != metricTotals[ts.Name] {
			t.Errorf("tenant %s: /metrics says %d, Stats says %d", ts.Name, metricTotals[ts.Name], got)
		}
	}
}

// TestScenarioTenantsAreValid pins that the shipped scenario's tenant
// set passes the same validation progqoid applies to a -tenants file.
func TestScenarioTenantsAreValid(t *testing.T) {
	sc := bench.DefaultScenario()
	var tenants []server.Tenant
	for _, tl := range sc.Tenants {
		tenants = append(tenants, tl.Tenant)
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
