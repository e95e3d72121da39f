package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"progqoi/internal/storage"
)

// postJSON fires one POST with an optional bearer token and returns the
// response; the body is decoded by the callers that care.
func postJSON(t *testing.T, url, token string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func announceBody(t *testing.T, addr string, gen int64, state string) []byte {
	t.Helper()
	b, err := json.Marshal(announcement{Addr: addr, Generation: gen, State: state})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func clusterInfoOf(t *testing.T, resp *http.Response) ClusterInfo {
	t.Helper()
	var info ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestClusterJoinHandlerMatrix covers the join contract: malformed
// payloads 400, duplicate advertise 409, stale generations 409, wrong
// method 405, and a good join returns the full membership view.
func TestClusterJoinHandlerMatrix(t *testing.T) {
	hs, _, _ := testServer(t, Options{Advertise: "http://self:9123"})

	t.Run("malformed payloads", func(t *testing.T) {
		for name, body := range map[string][]byte{
			"not json":         []byte("{nope"),
			"missing addr":     announceBody(t, "", 1, ""),
			"relative addr":    announceBody(t, "node1:9123", 1, ""),
			"ftp addr":         announceBody(t, "ftp://node1:9123", 1, ""),
			"zero generation":  announceBody(t, "http://node1:9123", 0, ""),
			"negative gen":     []byte(`{"addr":"http://node1:9123","generation":-4}`),
			"claiming suspect": announceBody(t, "http://node1:9123", 1, MemberSuspect),
			"unknown state":    announceBody(t, "http://node1:9123", 1, "zombie"),
		} {
			if resp := postJSON(t, hs.URL+"/v1/cluster/join", "", body); resp.StatusCode != 400 {
				t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
			}
		}
	})

	t.Run("duplicate advertise address", func(t *testing.T) {
		resp := postJSON(t, hs.URL+"/v1/cluster/join", "", announceBody(t, "http://self:9123/", 7, ""))
		if resp.StatusCode != 409 {
			t.Fatalf("joining under the node's own URL: status %d, want 409", resp.StatusCode)
		}
	})

	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/v1/cluster/join")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 405 {
			t.Fatalf("GET join: status %d, want 405", resp.StatusCode)
		}
	})

	t.Run("join then stale rejoin", func(t *testing.T) {
		resp := postJSON(t, hs.URL+"/v1/cluster/join", "", announceBody(t, "http://node1:9123", 5, ""))
		if resp.StatusCode != 200 {
			t.Fatalf("join: status %d", resp.StatusCode)
		}
		info := clusterInfoOf(t, resp)
		if len(info.Members) != 2 || info.Members[0].Addr != "http://self:9123" || info.Members[1].Addr != "http://node1:9123" {
			t.Fatalf("post-join members = %+v", info.Members)
		}
		if info.Members[1].Generation != 5 || info.Members[1].State != MemberAlive {
			t.Fatalf("joined member row = %+v", info.Members[1])
		}
		// The stale duplicate of a previous incarnation must not regress
		// the registered one.
		if resp := postJSON(t, hs.URL+"/v1/cluster/join", "", announceBody(t, "http://node1:9123", 4, "")); resp.StatusCode != 409 {
			t.Fatalf("stale join: status %d, want 409", resp.StatusCode)
		}
		// A restart (higher generation) replaces it.
		if resp := postJSON(t, hs.URL+"/v1/cluster/join", "", announceBody(t, "http://node1:9123", 6, "")); resp.StatusCode != 200 {
			t.Fatalf("restart join: status %d, want 200", resp.StatusCode)
		}
	})
}

// TestClusterHeartbeatHandler covers heartbeat as join's steady state:
// implicit registration, stale-generation rejection, drain state
// adoption, and the heartbeat counter.
func TestClusterHeartbeatHandler(t *testing.T) {
	hs, srv, _ := testServer(t, Options{Advertise: "http://self:9123"})

	// An unknown sender joins implicitly.
	resp := postJSON(t, hs.URL+"/v1/cluster/heartbeat", "", announceBody(t, "http://node1:9123", 3, ""))
	if resp.StatusCode != 200 {
		t.Fatalf("implicit-join heartbeat: status %d", resp.StatusCode)
	}
	if got := srv.memb.metrics().heartbeats; got != 1 {
		t.Fatalf("heartbeats counter = %d, want 1", got)
	}
	// A stale generation is rejected and not counted.
	if resp := postJSON(t, hs.URL+"/v1/cluster/heartbeat", "", announceBody(t, "http://node1:9123", 2, "")); resp.StatusCode != 409 {
		t.Fatalf("stale heartbeat: status %d, want 409", resp.StatusCode)
	}
	if got := srv.memb.metrics().heartbeats; got != 1 {
		t.Fatalf("heartbeats counter after stale = %d, want 1", got)
	}
	// A draining member advertises its state and leaves the routable
	// peers list.
	resp = postJSON(t, hs.URL+"/v1/cluster/heartbeat", "", announceBody(t, "http://node1:9123", 3, MemberDraining))
	if resp.StatusCode != 200 {
		t.Fatalf("draining heartbeat: status %d", resp.StatusCode)
	}
	info := clusterInfoOf(t, resp)
	if info.Members[1].State != MemberDraining {
		t.Fatalf("member state = %q, want draining", info.Members[1].State)
	}
	for _, p := range info.Peers {
		if p == "http://node1:9123" {
			t.Fatal("draining member still listed in legacy Peers")
		}
	}
}

// TestClusterLeaveHandler covers clean departure: deregistration,
// idempotency, and the stale-generation guard that protects a restarted
// node from its predecessor's shutdown.
func TestClusterLeaveHandler(t *testing.T) {
	hs, srv, _ := testServer(t, Options{Advertise: "http://self:9123"})
	if resp := postJSON(t, hs.URL+"/v1/cluster/join", "", announceBody(t, "http://node1:9123", 5, "")); resp.StatusCode != 200 {
		t.Fatalf("join: status %d", resp.StatusCode)
	}
	// A leave from a stale incarnation must not remove the newer one.
	if resp := postJSON(t, hs.URL+"/v1/cluster/leave", "", announceBody(t, "http://node1:9123", 4, "")); resp.StatusCode != 409 {
		t.Fatalf("stale leave: status %d, want 409", resp.StatusCode)
	}
	if len(srv.memb.info(nil).Members) != 2 {
		t.Fatal("stale leave removed the member")
	}
	resp := postJSON(t, hs.URL+"/v1/cluster/leave", "", announceBody(t, "http://node1:9123", 5, ""))
	if resp.StatusCode != 200 {
		t.Fatalf("leave: status %d", resp.StatusCode)
	}
	if info := clusterInfoOf(t, resp); len(info.Members) != 1 {
		t.Fatalf("post-leave members = %+v", info.Members)
	}
	// Leaving again (or an address never registered) is a no-op success.
	if resp := postJSON(t, hs.URL+"/v1/cluster/leave", "", announceBody(t, "http://node1:9123", 5, "")); resp.StatusCode != 200 {
		t.Fatalf("repeat leave: status %d, want 200", resp.StatusCode)
	}
}

// TestClusterDrainHandler covers the admin gate (same contract as
// reload: 403 with no token configured, 401 on wrong tokens) and the
// draining behavior: index/meta refuse new sessions with 503 +
// Retry-After while fragment routes keep serving in-flight work.
func TestClusterDrainHandler(t *testing.T) {
	t.Run("admin disabled", func(t *testing.T) {
		hs, _, _ := testServer(t, Options{Advertise: "http://self:9123"})
		if resp := postJSON(t, hs.URL+"/v1/cluster/drain", "whatever", nil); resp.StatusCode != 403 {
			t.Fatalf("drain without admin config: status %d, want 403", resp.StatusCode)
		}
	})
	t.Run("gated drain", func(t *testing.T) {
		hs, srv, vars := testServer(t, Options{Advertise: "http://self:9123", AdminToken: "sesame"})
		if resp := postJSON(t, hs.URL+"/v1/cluster/drain", "", nil); resp.StatusCode != 401 {
			t.Fatalf("drain without token: status %d, want 401", resp.StatusCode)
		}
		if resp := postJSON(t, hs.URL+"/v1/cluster/drain", "wrong", nil); resp.StatusCode != 401 {
			t.Fatalf("drain with wrong token: status %d, want 401", resp.StatusCode)
		}
		if srv.Draining() {
			t.Fatal("unauthorized drain took effect")
		}

		resp := postJSON(t, hs.URL+"/v1/cluster/drain", "sesame", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("drain: status %d", resp.StatusCode)
		}
		info := clusterInfoOf(t, resp)
		if !info.Draining || info.Members[0].State != MemberDraining {
			t.Fatalf("post-drain info = %+v", info)
		}
		if !srv.Draining() {
			t.Fatal("Draining() false after drain")
		}

		// New sessions are refused...
		for _, path := range []string{"/v1/d/ge/index", "/v1/d/ge/meta"} {
			resp, err := http.Get(hs.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 503 {
				t.Fatalf("GET %s while draining: status %d, want 503", path, resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("GET %s while draining: no Retry-After", path)
			}
		}
		// ...but in-flight fragment work keeps being served.
		if code, _ := getFrag(t, hs.URL, "ge", vars[0].Name, 0); code != 200 {
			t.Fatalf("fragment read while draining: status %d, want 200", code)
		}
		// Drain is idempotent: the second call succeeds and the
		// transition counter stays at one.
		if resp := postJSON(t, hs.URL+"/v1/cluster/drain", "sesame", nil); resp.StatusCode != 200 {
			t.Fatalf("repeat drain: status %d", resp.StatusCode)
		}
		if got := srv.memb.metrics().drains; got != 1 {
			t.Fatalf("drain transitions = %d, want 1", got)
		}
	})
}

// TestMembershipSweep drives the liveness state machine with an injected
// clock: silence past SuspectAfter marks suspect (recoverable by the
// member's own heartbeat), silence past RemoveAfter removes, and every
// transition bumps the epoch.
func TestMembershipSweep(t *testing.T) {
	m := newMembership(Options{
		Advertise:         "http://self:9123",
		HeartbeatInterval: time.Second,
		SuspectAfter:      3 * time.Second,
		RemoveAfter:       10 * time.Second,
	})
	t0 := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	if !m.observe("http://node1:9123", 1, MemberAlive, t0) {
		t.Fatal("first observe rejected")
	}
	epoch := m.metrics().epoch

	// Within the suspicion window nothing changes.
	if sus, rem := m.sweep(t0.Add(2 * time.Second)); len(sus)+len(rem) != 0 {
		t.Fatalf("early sweep transitions: %v %v", sus, rem)
	}
	sus, _ := m.sweep(t0.Add(4 * time.Second))
	if len(sus) != 1 || sus[0] != "http://node1:9123" {
		t.Fatalf("suspected = %v", sus)
	}
	if mm := m.metrics(); mm.suspect != 1 || mm.alive != 1 || mm.epoch <= epoch {
		t.Fatalf("post-suspect metrics = %+v", mm)
	}
	// The suspect's own heartbeat restores alive — false suspicion costs
	// nothing permanent.
	if !m.observe("http://node1:9123", 1, MemberAlive, t0.Add(5*time.Second)) {
		t.Fatal("recovery heartbeat rejected")
	}
	if mm := m.metrics(); mm.suspect != 0 || mm.alive != 2 {
		t.Fatalf("post-recovery metrics = %+v", mm)
	}
	// Silence past RemoveAfter removes outright.
	_, rem := m.sweep(t0.Add(16 * time.Second))
	if len(rem) != 1 || rem[0] != "http://node1:9123" {
		t.Fatalf("removed = %v", rem)
	}
	if got := len(m.info(nil).Members); got != 1 {
		t.Fatalf("members after removal = %d, want 1 (self)", got)
	}
}

// TestMembershipLearn pins the anti-entropy merge rules: unknown members
// and newer incarnations are adopted, but equal-generation hearsay never
// refreshes liveness and third-party suspicion is never imported.
func TestMembershipLearn(t *testing.T) {
	m := newMembership(Options{Advertise: "http://self:9123", SuspectAfter: 3 * time.Second, RemoveAfter: 10 * time.Second})
	t0 := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	m.learn([]MemberInfo{
		{Addr: "http://self:9123", Generation: 99, State: MemberAlive},   // self: ignored
		{Addr: "http://node1:9123", Generation: 2, State: MemberAlive},   // adopted
		{Addr: "http://node2:9123", Generation: 1, State: MemberSuspect}, // suspicion: not imported
		{Addr: "nonsense", Generation: 1, State: MemberAlive},            // malformed: skipped
		{Addr: "http://node3:9123", Generation: 0, State: MemberAlive},   // no incarnation: skipped
	}, t0)
	info := m.info(nil)
	if len(info.Members) != 2 || info.Members[1].Addr != "http://node1:9123" {
		t.Fatalf("learned members = %+v", info.Members)
	}
	// Equal-generation hearsay does not refresh liveness: node1 still
	// goes suspect on this node's own clock.
	m.learn([]MemberInfo{{Addr: "http://node1:9123", Generation: 2, State: MemberAlive}}, t0.Add(4*time.Second))
	if sus, _ := m.sweep(t0.Add(4 * time.Second)); len(sus) != 1 {
		t.Fatalf("hearsay kept node1 alive: suspected = %v", sus)
	}
	// A newer incarnation via hearsay is adopted (and refreshes).
	m.learn([]MemberInfo{{Addr: "http://node1:9123", Generation: 3, State: MemberAlive}}, t0.Add(5*time.Second))
	info = m.info(nil)
	if info.Members[1].Generation != 3 || info.Members[1].State != MemberAlive {
		t.Fatalf("newer hearsay not adopted: %+v", info.Members[1])
	}
}

// TestStartMembershipValidation covers the programmatic entry points:
// bad advertise and seed URLs fail, double starts fail, and the
// stop/leave paths are safe without a started loop.
func TestStartMembershipValidation(t *testing.T) {
	_, srv, _ := testServer(t, Options{})
	if err := srv.StartMembership(t.Context(), "not-a-url", nil); err == nil {
		t.Fatal("bad advertise accepted")
	}
	if err := srv.StartMembership(t.Context(), "http://self:9123", []string{"bogus"}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("bad seed error = %v", err)
	}
	// The failed seed validation above already consumed the one Start;
	// a second call reports that.
	if err := srv.StartMembership(t.Context(), "http://self:9123", nil); err == nil || !strings.Contains(err.Error(), "already started") {
		t.Fatalf("double start error = %v", err)
	}
	srv.LeaveCluster(t.Context()) // no-op without a started announcer
	srv.StopMembership()
	srv.StopMembership() // idempotent
}

// TestNodeURLRefusesNonBaseParts: clients append route paths to a node's
// advertised base URL, so a query, fragment or userinfo part would carry
// every request somewhere the node never serves. normalizeNodeURL refuses
// such an address, join, heartbeat and leave answer 400, and learn skips
// it; a plain base normalizes to a fixed point.
func TestNodeURLRefusesNonBaseParts(t *testing.T) {
	hs, srv, _ := testServer(t, Options{Advertise: "http://self:9123"})
	for _, addr := range []string{
		"http://h:1?x",
		"http://h:1/?x",
		"http://h:1?",
		"http://h:1#frag",
		"http://h:1#",
		"http://user@h:1",
		"http://user:pw@h:1",
		"http://h:1/a b",
	} {
		if got, err := normalizeNodeURL(addr); err == nil {
			t.Errorf("normalizeNodeURL(%q) = %q, want an error", addr, got)
		}
		for _, kind := range []string{"join", "heartbeat", "leave"} {
			if resp := postJSON(t, hs.URL+"/v1/cluster/"+kind, "", announceBody(t, addr, 1, "")); resp.StatusCode != 400 {
				t.Errorf("%s %q: status %d, want 400", kind, addr, resp.StatusCode)
			}
		}
		srv.memb.learn([]MemberInfo{{Addr: addr, Generation: 1, State: MemberAlive}}, time.Now())
	}
	if info := srv.memb.info(nil); len(info.Members) != 1 {
		t.Fatalf("members after refused addresses = %+v", info.Members)
	}
	for raw, want := range map[string]string{
		"http://h:1":            "http://h:1",
		" https://h:1/prefix/ ": "https://h:1/prefix",
		"http://[::1]:9123//":   "http://[::1]:9123",
	} {
		got, err := normalizeNodeURL(raw)
		if err != nil || got != want {
			t.Errorf("normalizeNodeURL(%q) = %q, %v; want %q", raw, got, err, want)
			continue
		}
		if again, err := normalizeNodeURL(got); err != nil || again != got {
			t.Errorf("normalizeNodeURL(%q) = %q, %v; not a fixed point", got, again, err)
		}
	}
}

// TestNewRefusesAdvertiseThatIsNotABaseURL: a programmatic
// Options.Advertise gets the check a joining node's address gets. New
// refuses one that normalizeNodeURL refuses, with its error, instead of
// reporting it as this node's address, and reports a plain base in its
// normal form.
func TestNewRefusesAdvertiseThatIsNotABaseURL(t *testing.T) {
	for _, addr := range []string{"http://h:1?x", "http://u@h:1", "ftp://h"} {
		_, want := normalizeNodeURL(addr)
		if want == nil {
			t.Fatalf("normalizeNodeURL(%q) accepts it", addr)
		}
		srv, err := New(context.Background(), storage.NewMemStore(), Options{Advertise: addr})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("New with Advertise %q: (%v, %v), want the error %q", addr, srv != nil, err, want)
		}
	}
	srv, err := New(context.Background(), storage.NewMemStore(), Options{Advertise: "http://h:1/"})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.memb.info(nil).Advertise; got != "http://h:1" {
		t.Errorf("Advertise http://h:1/ is reported as %q", got)
	}
}
