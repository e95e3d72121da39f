// Package bench is the mixed-tenant fixture behind TestTenantQoSEndToEnd:
// it starts an in-process progqoid cluster, drives N concurrent retrieval
// sessions with mixed QoI targets and tenant identities against it,
// and reports per-tenant throughput, latency quantiles (p50/p95/p99),
// and error counts as a machine-readable Summary.
//
// Every session runs the real public API end to end: progqoi.Open with
// WithToken against the full endpoint set, then repeated Session.Do
// calls. The client cache is disabled so each Do exercises the wire, and
// every result is compared, bit for bit and request by request, against a
// local reference retrieval — a throttled tenant is expected to slow
// down, never to diverge.
package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"progqoi"
	"progqoi/internal/server"
)

// TenantLoad is one tenant's slice of the scenario: its server-side QoS
// envelope plus the client-side load shape driven under that identity.
type TenantLoad struct {
	// Tenant is the server-side tenant definition (name, token, rate
	// limit, in-flight cap, priority class).
	Tenant server.Tenant `json:"tenant"`
	// Sessions is how many concurrent sessions run under this identity.
	Sessions int `json:"sessions"`
	// Requests is how many Do calls each session issues back to back.
	Requests int `json:"requests"`
	// Tolerance is the relative error tolerance of every target.
	Tolerance float64 `json:"tolerance"`
}

// Scenario pins one reproducible load shape. The zero value is not
// runnable; start from DefaultScenario.
type Scenario struct {
	// Name labels the scenario in summaries and artifacts.
	Name string `json:"name"`
	// Dataset is the dataset name served and retrieved.
	Dataset string `json:"dataset"`
	// Blocks/BlockSize/Seed parameterize the synthetic GE dataset.
	Blocks    int   `json:"blocks"`
	BlockSize int   `json:"blockSize"`
	Seed      int64 `json:"seed"`
	// Nodes is the in-process cluster size.
	Nodes int `json:"nodes"`
	// MaxInflight and MaxQueue configure each in-process node's serving
	// slots and admission queue (zero keeps the server defaults).
	MaxInflight int `json:"maxInflight,omitempty"`
	MaxQueue    int `json:"maxQueue,omitempty"`
	// Tenants is the mixed-tenant load.
	Tenants []TenantLoad `json:"tenants"`
}

// DefaultScenario is the pinned mixed-tenant scenario the tenant e2e test
// runs: a 3-node cluster, one bulk tenant flooding wide-open sessions and
// one interactive tenant probing with small bursts, plus a deliberately
// over-limit tenant whose sessions must survive throttling via 429 +
// Retry-After with bit-identical results.
func DefaultScenario() Scenario {
	return Scenario{
		Name:      "pr9-mixed-tenants",
		Dataset:   "bench",
		Blocks:    4,
		BlockSize: 220,
		Seed:      7,
		Nodes:     3,
		// Few slots per node so bulk load actually contends with the
		// interactive probe in the admission queue.
		MaxInflight: 4,
		Tenants: []TenantLoad{
			{
				Tenant: server.Tenant{
					Name: "bulk-flood", Token: "bench-bulk-flood-token",
					RateLimit: 10000, Class: server.ClassBulk,
				},
				Sessions: 6, Requests: 4, Tolerance: 2e-3,
			},
			{
				Tenant: server.Tenant{
					Name: "interactive", Token: "bench-interactive-token",
					RateLimit: 10000, Class: server.ClassInteractive,
				},
				Sessions: 2, Requests: 6, Tolerance: 2e-3,
			},
			{
				Tenant: server.Tenant{
					Name: "over-limit", Token: "bench-over-limit-token",
					// One token per node, refilled at 1/s: the back-to-back
					// index+meta fetches at session open alone guarantee a 429
					// on any hardware (no think time between them), so the
					// scenario deterministically exercises 429 + Retry-After
					// recovery — and must still finish bit-identically.
					RateLimit: 1, Burst: 1, Class: server.ClassInteractive,
				},
				Sessions: 1, Requests: 3, Tolerance: 2e-3,
			},
		},
	}
}

// TenantSummary is one tenant's measured outcome.
type TenantSummary struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	// Sessions ran; FailedSessions aborted with an error or returned a
	// result differing from the local reference.
	Sessions       int      `json:"sessions"`
	FailedSessions int      `json:"failedSessions"`
	Errors         []string `json:"errors,omitempty"`
	// Requests is completed Do calls; WireRequests is HTTP requests the
	// tenant's clients issued (retries included) — the number that must
	// reconcile with the cluster's per-tenant requests_total metric.
	Requests     int64 `json:"requests"`
	WireRequests int64 `json:"wireRequests"`
	// RateLimited counts 429 responses absorbed by retry/backoff.
	RateLimited int64 `json:"rateLimited"`
	// Latency quantiles over completed Do calls, in seconds.
	P50 float64 `json:"p50Seconds"`
	P95 float64 `json:"p95Seconds"`
	P99 float64 `json:"p99Seconds"`
	Max float64 `json:"maxSeconds"`
	// Throughput is completed Do calls per second of scenario wall time.
	Throughput float64 `json:"throughputPerSecond"`
}

// Summary is the scenario's measured outcome.
type Summary struct {
	Scenario        string          `json:"scenario"`
	Nodes           int             `json:"nodes"`
	DurationSeconds float64         `json:"durationSeconds"`
	Tenants         []TenantSummary `json:"tenants"`
}

// recorder accumulates one tenant's measurements across its sessions.
type recorder struct {
	mu     sync.Mutex
	lat    []float64 // guarded by mu; completed Do latencies, seconds
	failed int       // guarded by mu; sessions aborted or diverged
	errs   []string  // guarded by mu
	done   int64     // guarded by mu; completed Do calls
	wire   int64     // guarded by mu; summed client WireRequests
	rlim   int64     // guarded by mu; summed client RateLimited
}

func (r *recorder) observe(d time.Duration) {
	r.mu.Lock()
	r.lat = append(r.lat, d.Seconds())
	r.done++
	r.mu.Unlock()
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.failed++
	r.errs = append(r.errs, err.Error())
	r.mu.Unlock()
}

func (r *recorder) wireStats(st progqoi.RemoteStats) {
	r.mu.Lock()
	r.wire += st.WireRequests
	r.rlim += st.RateLimited
	r.mu.Unlock()
}

// quantile returns the nearest-rank p-quantile of sorted (ascending).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// toleranceAt is the tightening schedule a session walks: the first
// request at 100x the final tolerance, the second at 10x, the rest at
// the final tolerance — the paper's progressive workload, so every
// request retrieves a real residual rather than replaying a warm plan.
func toleranceAt(r int, final float64) float64 {
	switch r {
	case 0:
		return final * 100
	case 1:
		return final * 10
	default:
		return final
	}
}

// targetsFor gives session si its QoI mix: sessions cycle through total
// velocity only, derived temperature only, and both — so the cluster sees
// heterogeneous fragment demand, not one hot plan.
func targetsFor(si int, tol float64, fields []string) ([]progqoi.Target, error) {
	vtot := progqoi.TotalVelocity(0, 1, 2)
	temp, err := progqoi.ParseQoI("T", "Pressure/(287.1*Density)", fields)
	if err != nil {
		return nil, err
	}
	switch si % 3 {
	case 0:
		return []progqoi.Target{{QoI: vtot, Tolerance: tol}}, nil
	case 1:
		return []progqoi.Target{{QoI: temp, Tolerance: tol}}, nil
	default:
		return []progqoi.Target{{QoI: vtot, Tolerance: tol}, {QoI: temp, Tolerance: tol}}, nil
	}
}

// RunAgainst executes the scenario against cl, failing any session whose
// result is not bit-identical to a local reference. The caller owns cl.
func RunAgainst(ctx context.Context, sc Scenario, cl *Cluster) (*Summary, error) {
	if len(sc.Tenants) == 0 {
		return nil, fmt.Errorf("bench: scenario %q has no tenants", sc.Name)
	}
	endpoints := cl.Endpoints

	// Local references for bit-identity checks, one per request a remote
	// session will issue. A session's request sequence is stateful — each
	// request tightens the tolerance, so later requests retrieve only the
	// residual bytes — which means every (tenant, target-mix, request)
	// needs its own reference, replayed on a fresh local session exactly
	// as the remote sessions will run it.
	type refKey struct {
		tenant, mix, req int
	}
	refs := map[refKey]*progqoi.Result{}
	for ti, tl := range sc.Tenants {
		for mix := 0; mix < 3; mix++ {
			lsess, err := cl.Archive.Open()
			if err != nil {
				return nil, err
			}
			for r := 0; r < tl.Requests; r++ {
				targets, err := targetsFor(mix, toleranceAt(r, tl.Tolerance), cl.Fields)
				if err != nil {
					return nil, err
				}
				res, err := lsess.Do(ctx, progqoi.Request{Targets: targets})
				if err != nil {
					return nil, fmt.Errorf("bench: reference retrieval: %w", err)
				}
				refs[refKey{ti, mix, r}] = res
			}
		}
	}

	recs := make([]*recorder, len(sc.Tenants))
	for i := range recs {
		recs[i] = &recorder{}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for ti, tl := range sc.Tenants {
		for si := 0; si < tl.Sessions; si++ {
			wg.Add(1)
			go func(ti, si int, tl TenantLoad) {
				defer wg.Done()
				rec := recs[ti]
				// Each session is an independent user: its own client,
				// cache disabled so every Do pays the wire.
				arch, err := progqoi.Open(ctx, endpoints[0]+"/"+sc.Dataset,
					progqoi.WithEndpoints(endpoints[1:]...),
					progqoi.WithToken(tl.Tenant.Token),
					progqoi.WithCache(-1))
				if err != nil {
					rec.fail(fmt.Errorf("session %d open: %w", si, err))
					return
				}
				// Snapshot at return, not at defer time: deferred args are
				// evaluated immediately.
				defer func() { rec.wireStats(arch.RemoteStats()) }()
				sess, err := arch.Open()
				if err != nil {
					rec.fail(fmt.Errorf("session %d: %w", si, err))
					return
				}
				for r := 0; r < tl.Requests; r++ {
					targets, err := targetsFor(si, toleranceAt(r, tl.Tolerance), cl.Fields)
					if err != nil {
						rec.fail(err)
						return
					}
					t0 := time.Now()
					res, err := sess.Do(ctx, progqoi.Request{Targets: targets})
					if err != nil {
						rec.fail(fmt.Errorf("session %d request %d: %w", si, r, err))
						return
					}
					rec.observe(time.Since(t0))
					if ref := refs[refKey{ti, si % 3, r}]; ref != nil {
						if err := sameResult(ref, res); err != nil {
							rec.fail(fmt.Errorf("session %d request %d diverged from local reference: %w", si, r, err))
							return
						}
					}
				}
			}(ti, si, tl)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := &Summary{
		Scenario:        sc.Name,
		Nodes:           len(endpoints),
		DurationSeconds: elapsed.Seconds(),
	}
	for ti, tl := range sc.Tenants {
		rec := recs[ti]
		rec.mu.Lock()
		sort.Float64s(rec.lat)
		ts := TenantSummary{
			Name:           tl.Tenant.Name,
			Class:          tl.Tenant.Class,
			Sessions:       tl.Sessions,
			FailedSessions: rec.failed,
			Errors:         rec.errs,
			Requests:       rec.done,
			WireRequests:   rec.wire,
			RateLimited:    rec.rlim,
			P50:            quantile(rec.lat, 0.50),
			P95:            quantile(rec.lat, 0.95),
			P99:            quantile(rec.lat, 0.99),
		}
		if n := len(rec.lat); n > 0 {
			ts.Max = rec.lat[n-1]
		}
		if s := elapsed.Seconds(); s > 0 {
			ts.Throughput = float64(rec.done) / s
		}
		rec.mu.Unlock()
		if ts.Class == "" {
			ts.Class = server.ClassInteractive
		}
		sum.Tenants = append(sum.Tenants, ts)
	}
	return sum, nil
}

// sameResult compares two retrieval results bit for bit, mirroring the
// cluster e2e assertions.
func sameResult(want, got *progqoi.Result) error {
	if len(want.EstErrors) != len(got.EstErrors) {
		return fmt.Errorf("%d vs %d estimated errors", len(want.EstErrors), len(got.EstErrors))
	}
	for k := range want.EstErrors {
		if want.EstErrors[k] != got.EstErrors[k] {
			return fmt.Errorf("QoI %d: certified error %g != %g", k, want.EstErrors[k], got.EstErrors[k])
		}
	}
	if want.RetrievedBytes != got.RetrievedBytes {
		return fmt.Errorf("retrieved %d != %d bytes", want.RetrievedBytes, got.RetrievedBytes)
	}
	if len(want.Data) != len(got.Data) {
		return fmt.Errorf("%d vs %d data slices", len(want.Data), len(got.Data))
	}
	for v := range want.Data {
		if len(want.Data[v]) != len(got.Data[v]) {
			return fmt.Errorf("var %d: %d vs %d points", v, len(want.Data[v]), len(got.Data[v]))
		}
		for j := range want.Data[v] {
			if math.Float64bits(want.Data[v][j]) != math.Float64bits(got.Data[v][j]) {
				return fmt.Errorf("var %d point %d: %g != %g", v, j, want.Data[v][j], got.Data[v][j])
			}
		}
	}
	return nil
}
