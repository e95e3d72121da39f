package client

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"progqoi/internal/par"
	"progqoi/internal/server"
)

// elasticInfo swaps the /v1/cluster payload a test node serves, so
// client-side refresh tests can script membership changes without
// running the server-side heartbeat machinery.
type elasticInfo struct{ v atomic.Value }

func (e *elasticInfo) set(info server.ClusterInfo) { e.v.Store(info) }

// withElasticCluster intercepts GET /v1/cluster on every node with the
// scripted payload; all other routes pass through.
func withElasticCluster(t *testing.T, nodes []*clusterNode) *elasticInfo {
	t.Helper()
	e := &elasticInfo{}
	e.set(server.ClusterInfo{Peers: []string{}})
	for _, n := range nodes {
		inner := n.hs.Config.Handler
		n.hs.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && r.URL.Path == "/v1/cluster" {
				b, _ := json.Marshal(e.v.Load().(server.ClusterInfo))
				w.Header().Set("Content-Type", "application/json")
				w.Write(b) //nolint:errcheck
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	return e
}

// alive builds a ClusterInfo whose members are all alive.
func aliveMembers(addrs ...string) server.ClusterInfo {
	info := server.ClusterInfo{Peers: []string{}, Epoch: 1}
	for i, a := range addrs {
		info.Members = append(info.Members, server.MemberInfo{Addr: a, Generation: int64(i + 1), State: server.MemberAlive})
	}
	return info
}

// TestInstallViewSemantics pins the view installer's contract: epochs
// count installed changes, identical sets are no-ops, empty or invalid
// sets never displace a good view, and the replication clamp is
// re-derived per view.
func TestInstallViewSemantics(t *testing.T) {
	c, err := New("http://a:1", Options{Endpoints: []string{"http://b:2"}, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	v0 := c.view()
	if v0.epoch != 1 || len(v0.eps) != 2 || v0.repl != 2 {
		t.Fatalf("initial view = epoch %d, %d eps, repl %d", v0.epoch, len(v0.eps), v0.repl)
	}
	// Same set (order and spelling variants included): no install.
	if c.installView([]string{"http://b:2/", "http://a:1"}) {
		t.Fatal("identical set installed a new view")
	}
	if c.view() != v0 {
		t.Fatal("view pointer changed on a no-op install")
	}
	// A genuinely different set bumps the epoch and re-clamps repl.
	if !c.installView([]string{"http://a:1"}) {
		t.Fatal("shrunk set not installed")
	}
	v1 := c.view()
	if v1.epoch != 2 || len(v1.eps) != 1 || v1.repl != 1 {
		t.Fatalf("shrunk view = epoch %d, %d eps, repl %d", v1.epoch, len(v1.eps), v1.repl)
	}
	// Growing back re-uses the interned endpoint objects: identity (and
	// with it breaker state) survives leaving the view.
	if !c.installView([]string{"http://a:1", "http://b:2"}) {
		t.Fatal("regrown set not installed")
	}
	for _, ep := range c.view().eps {
		found := false
		for _, old := range v0.eps {
			if ep == old {
				found = true
			}
		}
		if !found {
			t.Fatalf("endpoint %s lost its identity across view swaps", ep.base)
		}
	}
	// Empty and all-invalid sets are refused outright.
	if c.installView(nil) || c.installView([]string{"ftp://x", "", "nope"}) {
		t.Fatal("unusable set installed")
	}
	if got := c.view().epoch; got != 3 {
		t.Fatalf("epoch after refused installs = %d, want 3", got)
	}
	if st := c.Stats(); st.TopologyEpoch != 3 || st.TopologySwaps != 2 {
		t.Fatalf("stats epoch/swaps = %d/%d, want 3/2", st.TopologyEpoch, st.TopologySwaps)
	}
}

// TestRefreshTopologyRoutesAliveMembersOnly exercises the client half of
// the membership protocol: a refresh installs exactly the alive members
// of the fetched view — suspect and draining nodes drop out — and a
// refresh that reaches nobody keeps the last good view.
func TestRefreshTopologyRoutesAliveMembersOnly(t *testing.T) {
	vars := testVars(t)
	nodes := testCluster(t, vars, 3)
	info := withElasticCluster(t, nodes)
	c := clusterClient(t, nodes, fastOptions())

	// All three alive: refresh is a no-op (same set).
	info.set(aliveMembers(nodes[0].hs.URL, nodes[1].hs.URL, nodes[2].hs.URL))
	changed, err := c.RefreshTopology(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("identical membership changed the view")
	}

	// Node 1 goes suspect, node 2 starts draining: both leave the view.
	sick := aliveMembers(nodes[0].hs.URL, nodes[1].hs.URL, nodes[2].hs.URL)
	sick.Members[1].State = server.MemberSuspect
	sick.Members[2].State = server.MemberDraining
	info.set(sick)
	changed, err = c.RefreshTopology(context.Background())
	if err != nil || !changed {
		t.Fatalf("refresh after suspicion: changed=%v err=%v", changed, err)
	}
	v := c.view()
	if len(v.eps) != 1 || v.eps[0].base != nodes[0].hs.URL {
		t.Fatalf("routable view = %v, want only node0", v.eps)
	}
	if st := c.Stats(); len(st.Routable) != 1 || st.Routable[0] != nodes[0].hs.URL {
		t.Fatalf("Stats.Routable = %v", st.Routable)
	}

	// Back to healthy; then all nodes unreachable: the view survives.
	info.set(aliveMembers(nodes[0].hs.URL, nodes[1].hs.URL, nodes[2].hs.URL))
	if changed, err = c.RefreshTopology(context.Background()); err != nil || !changed {
		t.Fatalf("recovery refresh: changed=%v err=%v", changed, err)
	}
	for _, n := range nodes {
		n.hs.Close()
	}
	if _, err = c.RefreshTopology(context.Background()); err == nil {
		t.Fatal("refresh with cluster down reported success")
	}
	if got := len(c.view().eps); got != 3 {
		t.Fatalf("view shrank to %d endpoints on a failed refresh", got)
	}
}

// TestFailedPassForcesRefresh proves the rolling-restart rescue path: a
// client whose whole view is failing re-resolves topology between retry
// passes (elastic mode only) and completes on the discovered node
// without burning the retry budget on the dead one.
func TestFailedPassForcesRefresh(t *testing.T) {
	vars := testVars(t)
	nodes := testCluster(t, vars, 2)
	info := withElasticCluster(t, nodes)

	opt := fastOptions()
	opt.TopologyRefresh = time.Hour     // elastic mode on; the timer never fires in-test
	c, err := New(nodes[0].hs.URL, opt) // view = node0 only
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d := openGE(t, c)

	// Node 0's data plane dies, but its control plane still answers and
	// advertises node 1 — exactly a node mid-restart handing off.
	nodes[0].fail.Store(true)
	info.set(aliveMembers(nodes[0].hs.URL, nodes[1].hs.URL))
	got, err := collect(context.Background(), d, par.New(0), allWants(vars))
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(t, vars, got)
	if posts := nodes[1].batchPosts.Load(); posts == 0 {
		t.Fatal("discovered node served nothing")
	}
	if st := c.Stats(); st.TopologySwaps == 0 {
		t.Fatal("no view swap recorded")
	}

	// Static clients (no TopologyRefresh) keep legacy behavior: the same
	// dead-view situation exhausts retries and fails.
	sc, err := New(nodes[0].hs.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	sd := openGE(t, sc)
	if _, err := collect(context.Background(), sd, par.New(0), allWants(vars)); err == nil {
		t.Fatal("static client silently adopted elastic refresh")
	}
}

// TestViewSwapRace is the elastic race suite: topology views swapping
// concurrently with in-flight batched fetches and breaker transitions.
// An endpoint removed from the view mid-pass must fail over — never
// panic, never lose a fragment, never double-count a failover. Run with
// -race; the assertions below catch logic races the detector cannot.
func TestViewSwapRace(t *testing.T) {
	vars := testVars(t)
	nodes := testCluster(t, vars, 3)
	opt := fastOptions()
	opt.Replication = 2
	opt.CacheBytes = -1 // every call refetches, maximizing wire concurrency
	c := clusterClient(t, nodes, opt)
	d := openGE(t, c)

	var frags int
	for _, v := range vars {
		frags += len(v.Ref.Fragments)
	}
	urls := []string{nodes[0].hs.URL, nodes[1].hs.URL, nodes[2].hs.URL}
	viewSets := [][]string{
		urls,
		{urls[0], urls[1]},
		{urls[1], urls[2]},
		{urls[0], urls[2]},
		{urls[2]},
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	// Swapper: churn through views including every removal pattern.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.installView(viewSets[i%len(viewSets)])
		}
	}()
	// Flapper: bounce node 1 between failing and healthy so breakers
	// open and half-open while views change underneath them.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nodes[1].fail.Store(i%2 == 0)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const fetchers, rounds = 4, 8
	errs := make(chan error, fetchers)
	var fetch sync.WaitGroup
	for f := 0; f < fetchers; f++ {
		fetch.Add(1)
		go func() {
			defer fetch.Done()
			for r := 0; r < rounds; r++ {
				got, err := collect(context.Background(), d, par.New(0), allWants(vars))
				if err != nil {
					errs <- err
					return
				}
				checkPayloads(t, vars, got)
			}
		}()
	}
	fetch.Wait()
	close(stop)
	churn.Wait()

	select {
	case err := <-errs:
		// With node 1 flapping and views churning, every fetch should
		// still succeed: replication 2 guarantees a live replica in all
		// scripted views except the {node2} singleton, where node 2 is
		// always healthy.
		t.Fatalf("fetch failed under view churn: %v", err)
	default:
	}
	st := c.Stats()
	// Failover accounting: at most one failover per fetched fragment per
	// call — a double-counted fragment would exceed this ceiling.
	if max := int64(fetchers * rounds * frags); st.Failovers > max {
		t.Fatalf("Failovers = %d exceeds %d fragments fetched (double-counted)", st.Failovers, max)
	}
	if st.TopologySwaps == 0 {
		t.Fatal("view churn recorded no swaps")
	}
}
