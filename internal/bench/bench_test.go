package bench

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"progqoi"
	"progqoi/internal/server"
)

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.99); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	one := []float64{0.7}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := quantile(one, p); q != 0.7 {
			t.Fatalf("quantile(one, %g) = %g, want 0.7", p, q)
		}
	}
	// Nearest-rank over 1..10: p50 is the 5th value, p99 the 10th.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(ten, 0.50); q != 5 {
		t.Fatalf("p50 = %g, want 5", q)
	}
	if q := quantile(ten, 0.99); q != 10 {
		t.Fatalf("p99 = %g, want 10", q)
	}
}

func TestToleranceAt(t *testing.T) {
	if got := toleranceAt(0, 1e-3); got != 1e-1 {
		t.Fatalf("request 0: %g, want 1e-1", got)
	}
	if got := toleranceAt(1, 1e-3); got != 1e-2 {
		t.Fatalf("request 1: %g, want 1e-2", got)
	}
	for r := 2; r < 5; r++ {
		if got := toleranceAt(r, 1e-3); got != 1e-3 {
			t.Fatalf("request %d: %g, want 1e-3", r, got)
		}
	}
}

func TestTargetsFor(t *testing.T) {
	fields := []string{"VelocityX", "VelocityY", "VelocityZ", "Pressure", "Density"}
	wantLen := []int{1, 1, 2} // velocity-only, temperature-only, both
	for si := 0; si < 6; si++ {
		targets, err := targetsFor(si, 1e-3, fields)
		if err != nil {
			t.Fatalf("targetsFor(%d): %v", si, err)
		}
		if len(targets) != wantLen[si%3] {
			t.Fatalf("session %d: %d targets, want %d", si, len(targets), wantLen[si%3])
		}
		for _, tg := range targets {
			if tg.Tolerance != 1e-3 {
				t.Fatalf("session %d: tolerance %g, want 1e-3", si, tg.Tolerance)
			}
		}
	}
	// The derived-temperature QoI needs Pressure and Density.
	if _, err := targetsFor(1, 1e-3, []string{"VelocityX"}); err == nil {
		t.Fatal("targetsFor with missing fields: want error")
	}
}

func TestSameResult(t *testing.T) {
	ref := func() *progqoi.Result {
		return &progqoi.Result{
			EstErrors:      []float64{1e-4, 2e-4},
			RetrievedBytes: 1234,
			Data:           [][]float64{{1, 2, 3}, {4, 5, 6}},
		}
	}
	if err := sameResult(ref(), ref()); err != nil {
		t.Fatalf("identical results: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*progqoi.Result)
		wantSub string
	}{
		{"estErrorCount", func(r *progqoi.Result) { r.EstErrors = r.EstErrors[:1] }, "estimated errors"},
		{"estErrorValue", func(r *progqoi.Result) { r.EstErrors[1] = 3e-4 }, "certified error"},
		{"bytes", func(r *progqoi.Result) { r.RetrievedBytes++ }, "bytes"},
		{"varCount", func(r *progqoi.Result) { r.Data = r.Data[:1] }, "data slices"},
		{"pointCount", func(r *progqoi.Result) { r.Data[0] = r.Data[0][:2] }, "points"},
		{"pointValue", func(r *progqoi.Result) { r.Data[1][2] = math.Nextafter(6, 7) }, "point"},
	}
	for _, tc := range cases {
		got := ref()
		tc.mutate(got)
		err := sameResult(ref(), got)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: err %v, want substring %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestRunAgainstValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := RunAgainst(ctx, Scenario{Name: "empty"}, nil); err == nil || !strings.Contains(err.Error(), "no tenants") {
		t.Fatalf("no tenants: %v", err)
	}
}

// tinyScenario is a cut-down DefaultScenario: one node, two tenants, a
// handful of requests — enough to exercise the full harness (references,
// bit-identity, wire stats) in well under a second of load.
func tinyScenario() Scenario {
	return Scenario{
		Name:        "bench-test-tiny",
		Dataset:     "bench-tiny",
		Blocks:      2,
		BlockSize:   96,
		Seed:        3,
		Nodes:       1,
		MaxInflight: 2,
		Tenants: []TenantLoad{
			{
				Tenant:   server.Tenant{Name: "bulk", Token: "bench-test-bulk-token", RateLimit: 10000, Class: server.ClassBulk},
				Sessions: 2, Requests: 2, Tolerance: 2e-3,
			},
			{
				Tenant:   server.Tenant{Name: "probe", Token: "bench-test-probe-token", RateLimit: 10000},
				Sessions: 1, Requests: 2, Tolerance: 2e-3,
			},
		},
	}
}

func TestRunInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an in-process cluster and runs real retrievals")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sc := tinyScenario()
	cl, err := StartCluster(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sum, err := RunAgainst(ctx, sc, cl)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scenario != sc.Name || sum.Nodes != 1 {
		t.Fatalf("summary header: %+v", sum)
	}
	if len(sum.Tenants) != 2 {
		t.Fatalf("%d tenant summaries, want 2", len(sum.Tenants))
	}
	for _, ts := range sum.Tenants {
		if ts.FailedSessions != 0 {
			t.Fatalf("tenant %s: %d failed sessions: %v", ts.Name, ts.FailedSessions, ts.Errors)
		}
		wantReqs := int64(0)
		for _, tl := range sc.Tenants {
			if tl.Tenant.Name == ts.Name {
				wantReqs = int64(tl.Sessions * tl.Requests)
			}
		}
		if ts.Requests != wantReqs {
			t.Fatalf("tenant %s: %d completed requests, want %d", ts.Name, ts.Requests, wantReqs)
		}
		if ts.WireRequests < ts.Requests {
			t.Fatalf("tenant %s: wire requests %d < completed %d", ts.Name, ts.WireRequests, ts.Requests)
		}
		if ts.P50 <= 0 || ts.P99 < ts.P50 || ts.Max < ts.P99 || ts.Throughput <= 0 {
			t.Fatalf("tenant %s: implausible quantiles %+v", ts.Name, ts)
		}
	}
	// The zero-value class defaults to interactive in the summary.
	for _, ts := range sum.Tenants {
		if ts.Name == "probe" && ts.Class != server.ClassInteractive {
			t.Fatalf("defaulted class = %q, want interactive", ts.Class)
		}
	}

	// The cluster's wire surface: Stats and strict-parseable /metrics.
	if st := cl.Stats(0); st.Requests == 0 {
		t.Fatal("node 0 served no requests")
	}
	expo, err := cl.Metrics(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo, `progqoid_tenant_requests_total{tenant="bulk",class="bulk"}`) {
		t.Fatal("/metrics lacks the per-tenant requests family")
	}
	if _, err := cl.Metrics(ctx, 0); err != nil {
		t.Fatal(err)
	}
}
