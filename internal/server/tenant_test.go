package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"progqoi/internal/obs"
)

func TestNormalizeTenantsValidation(t *testing.T) {
	valid := func() []Tenant {
		return []Tenant{
			{Name: "dash", Token: "dash-token-1", RateLimit: 50},
			{Name: "etl", Token: "etl-token-99", RateLimit: 10, MaxInflight: 4, Class: ClassBulk},
		}
	}
	cases := []struct {
		name   string
		mutate func([]Tenant) []Tenant
		substr string
	}{
		{"bad name", func(ts []Tenant) []Tenant { ts[0].Name = "da sh"; return ts }, "name"},
		{"empty name", func(ts []Tenant) []Tenant { ts[0].Name = ""; return ts }, "name"},
		{"dup name", func(ts []Tenant) []Tenant { ts[1].Name = ts[0].Name; return ts }, "twice"},
		{"short token", func(ts []Tenant) []Tenant { ts[0].Token = "short"; return ts }, "token shorter"},
		{"dup token", func(ts []Tenant) []Tenant { ts[1].Token = ts[0].Token; return ts }, "share a token"},
		{"negative rate", func(ts []Tenant) []Tenant { ts[0].RateLimit = -1; return ts }, "rateLimit"},
		{"negative burst", func(ts []Tenant) []Tenant { ts[0].Burst = -2; return ts }, "burst"},
		{"negative inflight", func(ts []Tenant) []Tenant { ts[1].MaxInflight = -1; return ts }, "maxInflight"},
		{"bad class", func(ts []Tenant) []Tenant { ts[1].Class = "batch"; return ts }, "class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NormalizeTenants(tc.mutate(valid()))
			if err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("err = %v, want containing %q", err, tc.substr)
			}
		})
	}
	out, err := NormalizeTenants(valid())
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Class != ClassInteractive {
		t.Fatalf("default class = %q, want %q", out[0].Class, ClassInteractive)
	}
	if out[0].Burst != 50 {
		t.Fatalf("default burst = %v, want rate rounded up", out[0].Burst)
	}
	if out[1].Burst != 10 || out[1].Class != ClassBulk {
		t.Fatalf("tenant 1 normalized to %+v", out[1])
	}
	// Zero-rate tenants still get a usable bucket (rate 0 = unlimited,
	// but burst must not be 0 — the PR 9 programmatic-Options bug).
	z, err := NormalizeTenants([]Tenant{{Name: "z", Token: "zzzzzzzzz"}})
	if err != nil {
		t.Fatal(err)
	}
	if z[0].Burst != 1 {
		t.Fatalf("zero-rate burst = %v, want 1", z[0].Burst)
	}
}

func TestParseTenantsDocument(t *testing.T) {
	ts, err := ParseTenants([]byte(`{"tenants": [
		{"name": "dash", "token": "dash-token-1", "rateLimit": 50, "class": "interactive"},
		{"name": "etl",  "token": "etl-token-99", "rateLimit": 10, "maxInflight": 4, "class": "bulk"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[1].Class != ClassBulk {
		t.Fatalf("parsed %+v", ts)
	}
	if _, err := ParseTenants([]byte(`{"tenants": []}`)); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	if _, err := ParseTenants([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestTokenEqual(t *testing.T) {
	if !TokenEqual("secret-token", "secret-token") {
		t.Fatal("equal tokens rejected")
	}
	if TokenEqual("secret-token", "secret-tokeN") {
		t.Fatal("different tokens accepted")
	}
	// Length differences must not short-circuit into acceptance either.
	if TokenEqual("secret-token", "secret-token-longer") {
		t.Fatal("prefix token accepted")
	}
	if TokenEqual("", "secret-token") {
		t.Fatal("empty token accepted")
	}
}

func TestTokenBucket(t *testing.T) {
	t0 := time.Now()
	ts := newTenantState(Tenant{Name: "a", Token: "aaaaaaaa", RateLimit: 2, Burst: 2}, t0)
	for i := 0; i < 2; i++ {
		if ok, _ := ts.allow(t0); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := ts.allow(t0)
	if ok {
		t.Fatal("over-burst request admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s] at 2 rps", retry)
	}
	// After the advertised wait the bucket holds a token again.
	if ok, _ := ts.allow(t0.Add(retry)); !ok {
		t.Fatal("request after advertised Retry-After still rejected")
	}
	// Unlimited tenants never wait.
	free := newTenantState(Tenant{Name: "f", Token: "ffffffff", Burst: 1}, t0)
	for i := 0; i < 100; i++ {
		if ok, _ := free.allow(t0); !ok {
			t.Fatal("unlimited tenant rate-limited")
		}
	}
}

// tenantTestServer starts a server with the given tenants over the
// standard test archive.
func tenantTestServer(t *testing.T, opt Options) (*httptest.Server, *Server) {
	t.Helper()
	hs, srv, _ := testServer(t, opt)
	return hs, srv
}

func authedGet(t *testing.T, url, token string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestTenantAuthHTTP(t *testing.T) {
	hs, srv := tenantTestServer(t, Options{Tenants: []Tenant{
		{Name: "dash", Token: "dash-token-1"},
	}})

	// Missing and wrong tokens are 401 on the data plane.
	for _, tok := range []string{"", "wrong-token-0"} {
		resp, _ := authedGet(t, hs.URL+"/v1/datasets", tok)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: %s, want 401", tok, resp.Status)
		}
	}
	// The right token passes.
	resp, _ := authedGet(t, hs.URL+"/v1/datasets", "dash-token-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated request: %s", resp.Status)
	}
	// Probes stay open without a token: a saturated-but-healthy server
	// must still answer its monitoring.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, _ := authedGet(t, hs.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without token: %s, want 200", path, resp.Status)
		}
	}
	st := srv.Stats()
	if st.Unauthorized != 2 {
		t.Fatalf("Unauthorized = %d, want 2", st.Unauthorized)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Requests != 1 {
		t.Fatalf("tenant stats = %+v", st.Tenants)
	}
}

func TestTenantRateLimit429(t *testing.T) {
	hs, srv := tenantTestServer(t, Options{Tenants: []Tenant{
		{Name: "slow", Token: "slow-token-1", RateLimit: 0.5, Burst: 1},
	}})
	resp, _ := authedGet(t, hs.URL+"/v1/datasets", "slow-token-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %s", resp.Status)
	}
	resp, _ = authedGet(t, hs.URL+"/v1/datasets", "slow-token-1")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit request: %s, want 429", resp.Status)
	}
	// At 0.5 rps the bucket refills in 2s: Retry-After must say so, and
	// must be integer seconds (RFC 9110), rounded up.
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	st := srv.Stats()
	if st.Tenants[0].RateLimited != 1 || st.Tenants[0].Requests != 2 {
		t.Fatalf("tenant stats = %+v (want rateLimited 1 of 2 requests)", st.Tenants[0])
	}
}

func TestTenantInflightCap429(t *testing.T) {
	hs, srv, gs, vars := gatedServer(t, Options{
		MaxInflight: 8,
		Tenants:     []Tenant{{Name: "capped", Token: "capped-token", MaxInflight: 1}},
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		if code, body, err := postFrags(hs.URL, "ge", "capped-token", vars[0].Name, 0); err != nil || code != http.StatusOK {
			t.Errorf("blocked request finished %d %v: %s", code, err, body)
		}
	}()
	select {
	case <-gs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the store")
	}
	// The tenant's single slot is occupied: the global limiter has room,
	// but the per-tenant cap rejects with 429.
	resp, _ := authedGet(t, hs.URL+"/v1/datasets", "capped-token")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	gs.open()
	<-done
	st := srv.Stats()
	if st.Tenants[0].OverInflight != 1 {
		t.Fatalf("OverInflight = %d, want 1", st.Tenants[0].OverInflight)
	}
	if st.Tenants[0].Inflight != 0 {
		t.Fatalf("Inflight = %d after completion, want 0", st.Tenants[0].Inflight)
	}
}

// TestAdmissionQueueFairness floods the bulk queue, then checks that a
// later interactive arrival is granted the freed slot first. Run under
// -race this also exercises the admitter's locking.
func TestAdmissionQueueFairness(t *testing.T) {
	ctx := context.Background()
	a := newAdmitter(1, 64)
	if err := a.acquire(ctx, 0); err != nil { // occupy the only slot
		t.Fatal(err)
	}

	const bulkWaiters = 8
	granted := make(chan int, bulkWaiters+1)
	var wg sync.WaitGroup
	for i := 0; i < bulkWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(ctx, 1); err != nil {
				t.Errorf("bulk acquire: %v", err)
				return
			}
			granted <- 1
			a.release()
		}()
	}
	waitDepth(t, a, 1, bulkWaiters)

	// The interactive probe arrives last — strictly after every bulk
	// waiter is parked — yet must be served first.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.acquire(ctx, 0); err != nil {
			t.Errorf("interactive acquire: %v", err)
			return
		}
		granted <- 0
		a.release()
	}()
	waitDepth(t, a, 0, 1)

	a.release() // free the occupied slot; the queue drains one by one
	if first := <-granted; first != 0 {
		t.Fatalf("first granted class = %d, want 0 (interactive ahead of %d queued bulk)", first, bulkWaiters)
	}
	wg.Wait()
	if got := a.granted[0].Load(); got != 1 {
		t.Fatalf("interactive grants = %d, want 1", got)
	}
	if got := a.granted[1].Load(); got != bulkWaiters {
		t.Fatalf("bulk grants = %d, want %d", got, bulkWaiters)
	}
}

// waitDepth polls until the class queue holds want waiters.
func waitDepth(t *testing.T, a *admitter, class, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.depths()[class] != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth[%d] = %d, want %d", class, a.depths()[class], want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionQueueShedAndCancel(t *testing.T) {
	ctx := context.Background()
	a := newAdmitter(1, 1)
	if err := a.acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}

	// A canceled waiter parks, gives up, and leaves the queue without
	// consuming a slot or permanently occupying queue capacity.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := a.acquire(cctx, 0); err != context.Canceled {
		t.Fatalf("canceled acquire = %v, want context.Canceled", err)
	}
	if d := a.depths(); d[0] != 0 {
		t.Fatalf("canceled waiter still queued: %v", d)
	}

	queued := make(chan error, 1)
	go func() { queued <- a.acquire(ctx, 1) }()
	waitDepth(t, a, 1, 1)

	// Queue full: the next arrival sheds immediately.
	if err := a.acquire(ctx, 0); err != errQueueFull {
		t.Fatalf("acquire on full queue = %v, want errQueueFull", err)
	}

	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("parked waiter: %v", err)
	}
	a.release()
	if d := a.depths(); d[0] != 0 || d[1] != 0 {
		t.Fatalf("queues not drained: %v", d)
	}
}

func TestMetricsPerTenantLabels(t *testing.T) {
	hs, _ := tenantTestServer(t, Options{Tenants: []Tenant{
		{Name: "dash", Token: "dash-token-1"},
		{Name: "etl", Token: "etl-token-99", RateLimit: 0.25, Burst: 1, Class: ClassBulk},
	}})
	// Traffic: two authenticated requests, one 429, one 401.
	authedGet(t, hs.URL+"/v1/datasets", "dash-token-1")
	authedGet(t, hs.URL+"/v1/datasets", "etl-token-99")
	if resp, _ := authedGet(t, hs.URL+"/v1/datasets", "etl-token-99"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("etl second request: %s, want 429", resp.Status)
	}
	authedGet(t, hs.URL+"/v1/datasets", "")

	resp, body := get(t, hs.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	// The exposition must parse strictly: well-formed samples, every
	// family declared with HELP and TYPE before use.
	fams, err := obs.ParseExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	wantFams := map[string]struct {
		typ     string
		samples int
	}{
		"progqoid_unauthorized_total":              {"counter", 1},
		"progqoid_tenant_requests_total":           {"counter", 2},
		"progqoid_tenant_rejected_total":           {"counter", 6}, // 3 reasons x 2 tenants
		"progqoid_tenant_inflight":                 {"gauge", 2},
		"progqoid_tenant_bytes_total":              {"counter", 2},
		"progqoid_admission_queued":                {"gauge", 2},
		"progqoid_admission_waits_total":           {"counter", 2},
		"progqoid_tenant_request_duration_seconds": {"histogram", 0},
	}
	for name, want := range wantFams {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing from /metrics", name)
		}
		if f.Type != want.typ {
			t.Fatalf("%s type = %s, want %s", name, f.Type, want.typ)
		}
		if want.samples > 0 && f.Samples != want.samples {
			t.Fatalf("%s samples = %d, want %d", name, f.Samples, want.samples)
		}
	}
	for _, line := range []string{
		`progqoid_tenant_requests_total{tenant="dash",class="interactive"} 1`,
		`progqoid_tenant_requests_total{tenant="etl",class="bulk"} 2`,
		`progqoid_tenant_rejected_total{tenant="etl",reason="rate"} 1`,
		`progqoid_unauthorized_total 1`,
	} {
		if !strings.Contains(string(body), line) {
			t.Fatalf("metrics missing %q", line)
		}
	}
}
