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
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

// clusterNode is one test cluster member: a real fragment service plus
// request counters and a switchable failure mode.
type clusterNode struct {
	hs         *httptest.Server
	batchPosts atomic.Int64
	fragGets   atomic.Int64
	fail       atomic.Bool // 500 every data request while set
}

// testCluster serves the same archive from n independent nodes.
func testCluster(t *testing.T, vars []*core.Variable, n int) []*clusterNode {
	t.Helper()
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		srv, err := server.New(context.Background(), st, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		node := &clusterNode{}
		node.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case strings.Contains(r.URL.Path, "/frags"):
				node.batchPosts.Add(1)
			case strings.Contains(r.URL.Path, "/frag/"):
				node.fragGets.Add(1)
			}
			if node.fail.Load() && strings.Contains(r.URL.Path, "/frag") {
				http.Error(w, "induced failure", http.StatusInternalServerError)
				return
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(node.hs.Close)
		nodes[i] = node
	}
	return nodes
}

func clusterClient(t *testing.T, nodes []*clusterNode, opt Options) *Client {
	t.Helper()
	for _, n := range nodes[1:] {
		opt.Endpoints = append(opt.Endpoints, n.hs.URL)
	}
	c, err := New(nodes[0].hs.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// allWants asks for every fragment of every variable.
func allWants(vars []*core.Variable) [][]int {
	wants := make([][]int, len(vars))
	for v := range vars {
		for fi := range vars[v].Ref.Fragments {
			wants[v] = append(wants[v], fi)
		}
	}
	return wants
}

// openGE opens dataset "ge" through c.
func openGE(t *testing.T, c *Client) *Dataset {
	t.Helper()
	d, err := c.Dataset(context.Background(), "ge")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// collect runs d.Fetch and gathers what it installs by variable name and
// fragment index, the shape checkPayloads reads.
func collect(ctx context.Context, d *Dataset, b *par.Budget, want [][]int) (map[string]map[int][]byte, error) {
	got := map[string]map[int][]byte{}
	err := d.Fetch(ctx, b, want, func(v, fi int, payload []byte) {
		name := d.Vars[v].Name
		if got[name] == nil {
			got[name] = map[int][]byte{}
		}
		got[name][fi] = payload
	})
	return got, err
}

func checkPayloads(t *testing.T, vars []*core.Variable, got map[string]map[int][]byte) {
	t.Helper()
	for _, v := range vars {
		for fi, want := range v.Ref.Fragments {
			b, ok := got[v.Name][fi]
			if !ok {
				t.Fatalf("fragment %s/%d missing", v.Name, fi)
			}
			if string(b) != string(want) {
				t.Fatalf("fragment %s/%d payload differs", v.Name, fi)
			}
		}
	}
}

func TestRendezvousDeterministicAndOrderIndependent(t *testing.T) {
	mk := func(urls ...string) *Client {
		c, err := New(urls[0], Options{Endpoints: urls[1:]})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	c1 := mk(urls[0], urls[1], urls[2])
	c2 := mk(urls[2], urls[0], urls[1])
	for _, key := range []string{shardKey("Vx", 0), shardKey("Vx", 7), shardKey("Pressure", 3), "/v1/datasets"} {
		o1, o2 := c1.candidates(key), c2.candidates(key)
		for i := range o1 {
			if o1[i].base != o2[i].base {
				t.Fatalf("key %q: order differs between clients: %s vs %s", key, o1[i].base, o2[i].base)
			}
		}
	}
	// Rendezvous must spread primaries roughly evenly: no node may own
	// less than half its fair share of 300 keys (the raw-FNV scoring this
	// replaced could starve a node completely).
	primaries := map[string]int{}
	for _, v := range []string{"Vx", "Vy", "Vz", "Pressure", "Density"} {
		for fi := 0; fi < 60; fi++ {
			primaries[c1.candidates(shardKey(v, fi))[0].base]++
		}
	}
	for _, u := range urls {
		if primaries[u] < 50 {
			t.Fatalf("node %s owns %d of 300 primaries (want >= 50): %v", u, primaries[u], primaries)
		}
	}
}

func TestReplicationClampAndEndpoints(t *testing.T) {
	c, err := New("http://a:1", Options{Endpoints: []string{"http://b:2", "http://a:1/"}, Replication: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Endpoints(); len(got) != 2 { // the duplicate (trailing slash) deduped
		t.Fatalf("endpoints = %v", got)
	}
	if got := c.view().repl; got != 2 {
		t.Fatalf("replication = %d, want clamped 2", got)
	}
	if _, err := New("ftp://nope", Options{}); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if _, err := New("http://ok:1", Options{Endpoints: []string{"nope"}}); err == nil {
		t.Fatal("bad extra endpoint accepted")
	}
}

func TestShardedBatchSplitsAcrossNodes(t *testing.T) {
	vars := testVars(t)
	nodes := testCluster(t, vars, 3)
	c := clusterClient(t, nodes, fastOptions())
	d := openGE(t, c)
	got, err := collect(context.Background(), d, par.New(0), allWants(vars))
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(t, vars, got)
	posts, served := 0, 0
	for i, n := range nodes {
		p := int(n.batchPosts.Load())
		t.Logf("node %d: %d batch POSTs", i, p)
		posts += p
		if p > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("sharding used %d of 3 nodes", served)
	}
	if posts != served {
		t.Fatalf("%d POSTs across %d nodes: sub-batches retried unexpectedly", posts, served)
	}
	if st := c.Stats(); st.Failovers != 0 {
		t.Fatalf("healthy cluster recorded %d failovers", st.Failovers)
	}
}

// TestShardErrorIndependentOfCompletionOrder: two shards fail with
// different non-retryable errors, and each call answers them in a
// different order. The call must return the error of the endpoint first in
// base order every time, not the one whose POST finished first.
func TestShardErrorIndependentOfCompletionOrder(t *testing.T) {
	vars := testVars(t)
	const calls = 20
	// Call i delays node i%2: its handler answers only once the other
	// node's error is on the wire (answered[i] closed), or its own request
	// has ended.
	var call atomic.Int64
	answered := make([]chan struct{}, calls)
	for i := range answered {
		answered[i] = make(chan struct{})
	}
	node := func(id int64, status int) *httptest.Server {
		return serviceFor(t, vars, func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !strings.HasSuffix(r.URL.Path, "/frags") {
					next.ServeHTTP(w, r)
					return
				}
				i := call.Load()
				if i%2 == id {
					select {
					case <-answered[i]:
					case <-r.Context().Done():
					}
					http.Error(w, http.StatusText(status), status)
					return
				}
				http.Error(w, http.StatusText(status), status)
				w.(http.Flusher).Flush()
				close(answered[i])
			})
		})
	}
	a, b := node(0, http.StatusForbidden), node(1, http.StatusNotFound)
	c, err := New(a.URL, Options{Endpoints: []string{b.URL}})
	if err != nil {
		t.Fatal(err)
	}
	d := openGE(t, c)
	want := http.StatusForbidden
	if b.URL < a.URL {
		want = http.StatusNotFound
	}
	var first string
	for i := int64(0); i < calls; i++ {
		call.Store(i)
		_, err := collect(context.Background(), d, par.New(2), allWants(vars))
		var he *HTTPError
		if !errors.As(err, &he) {
			t.Fatalf("call %d: want an HTTPError, got %v", i, err)
		}
		if he.Status != want {
			t.Fatalf("call %d: HTTP %d, want %d from the first endpoint in base order", i, he.Status, want)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("call %d: error %q differs from the first call's %q", i, err, first)
		}
	}
}

func TestFailoverOnDeadNode(t *testing.T) {
	vars := testVars(t)
	nodes := testCluster(t, vars, 3)
	c := clusterClient(t, nodes, fastOptions())
	d := openGE(t, c)
	// Kill one node outright: connections refuse, fetches must fail over
	// and every payload still arrive bit-identical.
	nodes[1].hs.Close()
	got, err := collect(context.Background(), d, par.New(0), allWants(vars))
	if err != nil {
		t.Fatalf("fetch with a dead node: %v", err)
	}
	checkPayloads(t, vars, got)
	st := c.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead node")
	}
	var deadErrors int64
	for _, ep := range st.Endpoints {
		if ep.URL == nodes[1].hs.URL {
			deadErrors = ep.Errors
		}
	}
	if deadErrors == 0 {
		t.Fatalf("dead endpoint shows no errors: %+v", st.Endpoints)
	}
}

func TestFailoverOn5xxNode(t *testing.T) {
	vars := testVars(t)
	nodes := testCluster(t, vars, 3)
	c := clusterClient(t, nodes, fastOptions())
	d := openGE(t, c)
	nodes[0].fail.Store(true)
	got, err := collect(context.Background(), d, par.New(0), allWants(vars))
	if err != nil {
		t.Fatalf("fetch with a 500ing node: %v", err)
	}
	checkPayloads(t, vars, got)
	if st := c.Stats(); st.Failovers == 0 {
		t.Fatal("no failovers recorded despite a 500ing node")
	}
	failovers, requests := failoverCounts(c, vars, nodes[0].hs.URL)
	checkCounters(t, c.Stats(), 0, failovers, 0, requests)
}

// failoverCounts predicts the counters of opening the dataset and one
// Fetch over allWants when the endpoint sick rejects its sub-batch
// retryably and every other endpoint serves: one failover per fragment
// sick is primary for, and requests for the index and meta GETs, one
// POST per distinct primary, and one POST per distinct second choice of
// sick's fragments.
func failoverCounts(c *Client, vars []*core.Variable, sick string) (failovers, requests int64) {
	primaries, seconds := map[string]bool{}, map[string]bool{}
	for _, v := range vars {
		for fi := range v.Ref.Fragments {
			order := c.candidates(shardKey(v.Name, fi))
			primaries[order[0].base] = true
			if order[0].base == sick {
				failovers++
				seconds[order[1].base] = true
			}
		}
	}
	return failovers, int64(2 + len(primaries) + len(seconds))
}

func TestBreakerStateMachine(t *testing.T) {
	ep := &endpoint{base: "http://x:1"}
	clk := &fakeClock{}
	if !ep.admit(clk.Now()) {
		t.Fatal("fresh endpoint refused")
	}
	for i := 0; i < breakerThreshold-1; i++ {
		ep.report(false, clk.Now())
		if !ep.admit(clk.Now()) {
			t.Fatalf("breaker opened after %d failures (threshold %d)", i+1, breakerThreshold)
		}
	}
	ep.report(false, clk.Now()) // reaches threshold
	clk.advance(breakerCooldown - time.Nanosecond)
	if ep.admit(clk.Now()) {
		t.Fatal("breaker did not stay open for its cooldown")
	}
	if got := ep.snapshot().State; got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	clk.advance(time.Nanosecond)
	if !ep.admit(clk.Now()) {
		t.Fatal("no half-open probe after cooldown")
	}
	if got := ep.snapshot().State; got != "probing" {
		t.Fatalf("state = %q, want probing", got)
	}
	if ep.admit(clk.Now()) {
		t.Fatal("second probe admitted while first in flight")
	}
	ep.report(false, clk.Now()) // failed probe reopens immediately
	if ep.admit(clk.Now()) {
		t.Fatal("breaker closed after failed probe")
	}
	clk.advance(breakerCooldown)
	if !ep.admit(clk.Now()) {
		t.Fatal("no second probe")
	}
	ep.report(true, clk.Now())
	if !ep.admit(clk.Now()) || ep.snapshot().State != "ok" {
		t.Fatal("successful probe did not close the breaker")
	}
}

func TestBreakerRoutesAroundSickNodeThenRecovers(t *testing.T) {
	vars := testVars(t)
	nodes := testCluster(t, vars, 2)
	opt := fastOptions()
	opt.CacheBytes = -1 // every call exercises the wire
	clk := opt.clock.(*fakeClock)
	c := clusterClient(t, nodes, opt)
	d := openGE(t, c)
	ctx := context.Background()
	wants := allWants(vars)

	nodes[0].fail.Store(true)
	// Enough failed calls to trip node 0's breaker (one health failure per
	// call: the first sub-batch 500s, then everything reroutes to node 1).
	for i := 0; i < breakerThreshold; i++ {
		if _, err := collect(ctx, d, par.New(0), wants); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	before := nodes[0].batchPosts.Load()
	if _, err := collect(ctx, d, par.New(0), wants); err != nil {
		t.Fatal(err)
	}
	if after := nodes[0].batchPosts.Load(); after != before {
		t.Fatalf("open breaker still sent %d POSTs to the sick node", after-before)
	}

	// Node recovers and the cooldown passes: the next call's half-open
	// probe lets the node back in.
	nodes[0].fail.Store(false)
	clk.advance(breakerCooldown)
	if _, err := collect(ctx, d, par.New(0), wants); err != nil {
		t.Fatal(err)
	}
	if nodes[0].batchPosts.Load() == before {
		t.Fatal("recovered node never probed back into rotation")
	}
	var state string
	for _, ep := range c.Stats().Endpoints {
		if ep.URL == nodes[0].hs.URL {
			state = ep.State
		}
	}
	if state != "ok" {
		t.Fatalf("recovered endpoint state = %q, want ok", state)
	}
}

func TestOpenDiscoversPeers(t *testing.T) {
	vars := testVars(t)
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	var peers []*httptest.Server
	for i := 0; i < 2; i++ {
		srv, err := server.New(context.Background(), st, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		peers = append(peers, hs)
	}
	seedSrv, err := server.New(context.Background(), st, server.Options{Peers: []string{peers[0].URL, peers[1].URL}})
	if err != nil {
		t.Fatal(err)
	}
	seed := httptest.NewServer(seedSrv)
	t.Cleanup(seed.Close)

	opt := fastOptions()
	opt.DiscoverPeers = true
	c, err := Open(context.Background(), seed.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if got := c.Endpoints(); len(got) != 3 {
		t.Fatalf("discovered endpoints = %v, want 3", got)
	}
}

func TestAbortedProbeReleasesHalfOpen(t *testing.T) {
	ep := &endpoint{base: "http://x:1"}
	clk := &fakeClock{}
	for i := 0; i < breakerThreshold; i++ {
		ep.report(false, clk.Now())
	}
	clk.advance(breakerCooldown)
	if !ep.admit(clk.Now()) {
		t.Fatal("no probe after cooldown")
	}
	// The probe's context dies mid-request: the slot must come back so the
	// endpoint is not stuck half-open (= demoted) forever.
	ep.abortProbe()
	if !ep.admit(clk.Now()) {
		t.Fatal("aborted probe did not release the half-open slot")
	}
	ep.report(true, clk.Now())
	if ep.snapshot().State != "ok" {
		t.Fatal("probe success did not close the breaker")
	}
}

func TestSpillPrefersHealthyNodeOverOpenReplicas(t *testing.T) {
	vars := testVars(t)
	nodes := testCluster(t, vars, 3)
	opt := fastOptions()
	opt.Replication = 2
	c := clusterClient(t, nodes, opt)
	d := openGE(t, c)
	// Force-open two breakers with a far-future cooldown. Every shard
	// whose whole replica set they cover must spill straight to the
	// healthy third node without dialing the open ones.
	for _, ep := range c.view().eps[:2] {
		ep.mu.Lock()
		ep.state = bkOpen
		ep.openUntil = time.Now().Add(time.Hour)
		ep.mu.Unlock()
	}
	before0, before1 := nodes[0].batchPosts.Load()+nodes[0].fragGets.Load(),
		nodes[1].batchPosts.Load()+nodes[1].fragGets.Load()
	got, err := collect(context.Background(), d, par.New(0), allWants(vars))
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(t, vars, got)
	after0, after1 := nodes[0].batchPosts.Load()+nodes[0].fragGets.Load(),
		nodes[1].batchPosts.Load()+nodes[1].fragGets.Load()
	if after0 != before0 || after1 != before1 {
		t.Fatalf("breaker-open nodes were dialed despite a healthy spill target: %d/%d new requests",
			after0-before0, after1-before1)
	}
}
