package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"progqoi/internal/core"
	"progqoi/internal/par"
	"progqoi/internal/retry"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

// tenantService starts one fragment service requiring the given tenants.
func tenantService(t *testing.T, vars []*core.Variable, tenants []server.Tenant) *httptest.Server {
	t.Helper()
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(context.Background(), st, server.Options{Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs
}

func TestTokenAuthAgainstTenantServer(t *testing.T) {
	vars := testVars(t)
	hs := tenantService(t, vars, []server.Tenant{{Name: "dash", Token: "dash-token-1"}})

	// No token and a wrong token both surface as ErrUnauthorized — a
	// terminal error, not something retries can fix.
	for _, tok := range []string{"", "wrong-token-0"} {
		opt := fastOptions()
		opt.Token = tok
		c, err := New(hs.URL, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Dataset(context.Background(), "ge"); !errors.Is(err, ErrUnauthorized) {
			t.Fatalf("token %q: err = %v, want ErrUnauthorized", tok, err)
		}
	}

	opt := fastOptions()
	opt.Token = "dash-token-1"
	c, err := New(hs.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	got, err := collect(context.Background(), d, par.New(0), allWants(vars))
	if err != nil {
		t.Fatalf("authenticated fetch: %v", err)
	}
	checkPayloads(t, vars, got)
}

// TestRateLimit429FailsOverAcrossShards pins the 429 contract under
// shard failover: a rate-limiting node is healthy, not sick — the
// client moves to a replica within the same pass (each node enforces
// its own bucket), never trips the breaker, and the payloads arrive
// bit-identical.
func TestRateLimit429FailsOverAcrossShards(t *testing.T) {
	vars := testVars(t)
	// Three replicas of the same archive; node 0 throttles every data
	// request with a one-second Retry-After.
	var throttled atomic.Int64
	node0 := serviceFor(t, vars, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.Contains(r.URL.Path, "/frag") {
				throttled.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "tenant over rate limit", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	opt := fastOptions()
	opt.Endpoints = []string{serviceFor(t, vars, nil).URL, serviceFor(t, vars, nil).URL}
	c, err := New(node0.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	got, err := collect(context.Background(), d, par.New(0), allWants(vars))
	if err != nil {
		t.Fatalf("fetch with a throttling node: %v", err)
	}
	checkPayloads(t, vars, got)
	// Failover, not waiting: replicas served the shards the throttled
	// node rejected, so no Retry-After wait was needed.
	if waits := opt.clock.(*fakeClock).recorded(); len(waits) != 0 {
		t.Fatalf("client waited %v despite healthy replicas", waits)
	}
	if throttled.Load() == 0 {
		t.Fatal("throttling node was never asked for data")
	}
	st := c.Stats()
	if st.RateLimited == 0 {
		t.Fatal("no 429s recorded despite a throttling node")
	}
	for _, ep := range st.Endpoints {
		if ep.URL != node0.URL {
			continue
		}
		// 429 is a healthy signal: the breaker must stay closed and the
		// rejections must not count as endpoint errors.
		if ep.State != "ok" {
			t.Fatalf("throttled endpoint state = %q, want ok (429 must not trip the breaker)", ep.State)
		}
		if ep.Errors != 0 {
			t.Fatalf("throttled endpoint errors = %d, want 0", ep.Errors)
		}
	}
	failovers, requests := failoverCounts(c, vars, node0.URL)
	checkCounters(t, st, 0, failovers, 1, requests)
}

func TestRetryAfterHonoredWhenAllReplicasLimited(t *testing.T) {
	vars := testVars(t)
	var rejected atomic.Int64
	hs := serviceFor(t, vars, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Throttle the first data request only: the limit lifts once
			// the client has been rejected.
			if strings.Contains(r.URL.Path, "/frag") && rejected.Add(1) == 1 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "tenant over rate limit", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	})

	opt := fastOptions()
	c, err := New(hs.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	got, err := collect(context.Background(), d, par.New(0), allWants(vars))
	if err != nil {
		t.Fatalf("fetch after throttle lifted: %v", err)
	}
	checkPayloads(t, vars, got)
	// The retry that succeeds must come after the advertised Retry-After,
	// not after the shorter backoff.
	if waits := opt.clock.(*fakeClock).recorded(); len(waits) != 1 || waits[0] < time.Second {
		t.Fatalf("waits = %v, want one of >= 1s (Retry-After honored over the %v backoff)",
			waits, retry.Backoff)
	}
	checkCounters(t, c.Stats(), 1, 0, 1, 4)
}

func TestRateLimitExhaustionSurfacesErrRateLimited(t *testing.T) {
	vars := testVars(t)
	hs := serviceFor(t, vars, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.Contains(r.URL.Path, "/frag") {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "tenant over rate limit", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	opt := fastOptions()
	opt.MaxRetries = 1
	c, err := New(hs.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	if _, err := collect(context.Background(), d, par.New(0), allWants(vars)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if waits := opt.clock.(*fakeClock).recorded(); len(waits) != 1 || waits[0] < time.Second {
		t.Fatalf("waits = %v, want one of >= 1s", waits)
	}
	checkCounters(t, c.Stats(), 1, 0, 2, 4)
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{" 7 ", 7 * time.Second},
		{"-5", 0},
		{"soon", 0},
		{"9223372036", 9223372036 * time.Second}, // the largest that fits a Duration
		{"9223372037", 0},                        // overflows to a negative Duration
		{"18446744074", 0},                       // overflows to about 0.29 s
		{now.Add(-time.Hour).Format(http.TimeFormat), 0},
		{now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second},
	} {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
