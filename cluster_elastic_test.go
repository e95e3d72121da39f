package progqoi

// cluster_elastic_test.go proves elastic cluster membership end to end,
// in process: real fragment services form a cluster by announcing and
// heartbeating, a remote archive follows the live topology with
// WithTopologyRefresh, and retrieval stays bit-identical to a local
// session through every membership fault the suite injects — a rolling
// restart of every node, a node joining mid-retrieval, a graceful drain
// under load, a heartbeat partition that falsely suspects a live node,
// and split membership views between clients. The daemon twin of the
// rolling-restart and drain proofs runs against real progqoid processes
// in cluster_elastic_daemon_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"progqoi/internal/datagen"
	"progqoi/internal/obs"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

// elasticNode is one in-process cluster member: a real fragment service
// with live membership, plus a scriptable partition that drops
// membership announcements from one chosen address.
type elasticNode struct {
	srv      *server.Server
	hs       *httptest.Server
	stopOnce sync.Once
	block    atomic.Pointer[string] // announcements from this addr get 503
}

func (n *elasticNode) URL() string { return n.hs.URL }

// partitionFrom makes this node drop join/heartbeat/leave announcements
// from addr ("" heals). Data-plane and /v1/cluster reads pass through:
// the partition cuts the membership protocol only, which is what lets a
// perfectly healthy node be falsely suspected.
func (n *elasticNode) partitionFrom(addr string) { n.block.Store(&addr) }

// startElasticNode boots one node over the shared store with fast
// membership timers (25ms heartbeats) so suspicion and removal converge
// in test time.
func startElasticNode(t *testing.T, st storage.Store, gen int64, admin string) *elasticNode {
	t.Helper()
	srv, err := server.New(context.Background(), st, server.Options{
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      150 * time.Millisecond,
		RemoveAfter:       600 * time.Millisecond,
		Generation:        gen,
		AdminToken:        admin,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &elasticNode{srv: srv}
	none := ""
	n.block.Store(&none)
	n.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			var a struct {
				Addr string `json:"addr"`
			}
			_ = json.Unmarshal(body, &a)
			if blocked := *n.block.Load(); blocked != "" && a.Addr == blocked {
				http.Error(w, "partitioned", http.StatusServiceUnavailable)
				return
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(n.kill)
	return n
}

// join starts this node's membership, announcing to the given seeds.
func (n *elasticNode) join(t *testing.T, seeds ...string) {
	t.Helper()
	if err := n.srv.StartMembership(context.Background(), n.URL(), seeds); err != nil {
		t.Fatal(err)
	}
}

// kill stops the node abruptly — no leave announcement — so its peers
// must detect the death through missed heartbeats. Idempotent.
func (n *elasticNode) kill() {
	n.stopOnce.Do(func() {
		n.srv.StopMembership()
		n.hs.CloseClientConnections()
		n.hs.Close()
	})
}

// startElasticCluster writes the archive once and boots n nodes, each
// joining the ones before it, then waits until every node sees the full
// membership. The shared store is returned so tests can boot
// replacements and joiners over the same archive.
func startElasticCluster(t *testing.T, arch *Archive, name string, n int, admin string) ([]*elasticNode, storage.Store) {
	t.Helper()
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, name, arch.Variables()); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*elasticNode, n)
	var seeds []string
	for i := range nodes {
		nodes[i] = startElasticNode(t, st, int64(i+1), admin)
		nodes[i].join(t, seeds...)
		seeds = append(seeds, nodes[i].URL())
	}
	for _, node := range nodes {
		waitMembership(t, node.URL(), func(info server.ClusterInfo) bool {
			alive := 0
			for _, m := range info.Members {
				if m.State == server.MemberAlive {
					alive++
				}
			}
			return alive == n
		})
	}
	return nodes, st
}

// clusterInfoFrom fetches and decodes one node's /v1/cluster.
func clusterInfoFrom(t *testing.T, url string) (server.ClusterInfo, error) {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster")
	if err != nil {
		return server.ClusterInfo{}, err
	}
	defer resp.Body.Close()
	var info server.ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return server.ClusterInfo{}, err
	}
	return info, nil
}

// waitMembership polls a node's /v1/cluster until cond holds.
func waitMembership(t *testing.T, url string, cond func(server.ClusterInfo) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if info, err := clusterInfoFrom(t, url); err == nil && cond(info) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	info, err := clusterInfoFrom(t, url)
	t.Fatalf("membership at %s never converged: %+v (err %v)", url, info, err)
}

// waitRoutable polls the archive's topology view until it contains every
// URL in want and none in absent.
func waitRoutable(t *testing.T, arch *Archive, want, absent []string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		routable := map[string]bool{}
		for _, u := range arch.RemoteStats().Routable {
			routable[u] = true
		}
		ok := true
		for _, u := range want {
			if !routable[u] {
				ok = false
			}
		}
		for _, u := range absent {
			if routable[u] {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("client view never converged: routable=%v want=%v absent=%v",
		arch.RemoteStats().Routable, want, absent)
}

// elasticTolerances is the tightening workload the elastic suite drives:
// three Do calls per session, each with several certify iterations, so
// fault injection always has in-flight work to disturb.
var elasticTolerances = []float64{2e-3, 5e-4, 2e-4}

// doSequence runs the tightening workload on one fresh session.
func doSequence(t *testing.T, arch *Archive, fields []string, progress func(step int, it Iteration)) []*Result {
	t.Helper()
	sess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	temp, err := ParseQoI("T", "Pressure/(287.1*Density)", fields)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Result, len(elasticTolerances))
	for i, tol := range elasticTolerances {
		req := Request{Targets: []Target{
			{QoI: vtot, Tolerance: tol},
			{QoI: temp, Tolerance: tol},
		}}
		if progress != nil {
			step := i
			req.OnProgress = func(it Iteration) { progress(step, it) }
		}
		res, err := sess.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("Do step %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// TestElasticRollingRestartZeroDowntime is the tentpole proof: all three
// nodes of the cluster are killed and replaced — one per Do of the
// tightening sequence, mid-certify-loop — while the client follows the
// membership through its topology refresher. Zero sessions fail, every
// result is bit-identical to a local retrieval, and concurrent sessions
// retrieving throughout the restarts see the same.
func TestElasticRollingRestartZeroDowntime(t *testing.T) {
	ds := datagen.GE("GE-elastic-roll", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	local := doSequence(t, arch, ds.FieldNames, nil)

	nodes, st := startElasticCluster(t, arch, "ge", 3, "")

	rarch, err := Open(context.Background(), nodes[0].URL()+"/ge",
		WithEndpoints(nodes[1].URL(), nodes[2].URL()),
		WithReplication(2), WithTopologyRefresh(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rarch.Close()

	// Two concurrent sessions retrieve non-stop through every restart:
	// the zero-failed-sessions half of the proof.
	bgCtx, bgStop := context.WithCancel(context.Background())
	defer bgStop()
	var bg sync.WaitGroup
	bgErrs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			vtot := TotalVelocity(0, 1, 2)
			for bgCtx.Err() == nil {
				sess, err := rarch.Open()
				if err != nil {
					bgErrs <- err
					return
				}
				res, err := sess.Do(context.Background(), Request{Targets: []Target{
					{QoI: vtot, Tolerance: elasticTolerances[len(elasticTolerances)-1]},
				}})
				if err != nil {
					bgErrs <- fmt.Errorf("concurrent session failed during rolling restart: %w", err)
					return
				}
				points := 0
				for v := range res.Data {
					points += len(res.Data[v])
				}
				if points == 0 {
					bgErrs <- fmt.Errorf("concurrent session returned no data")
					return
				}
			}
		}()
	}

	current := []*elasticNode{nodes[0], nodes[1], nodes[2]}
	restarts := 0
	postRestartIters := 0
	remote := doSequence(t, rarch, ds.FieldNames, func(step int, it Iteration) {
		if step == restarts && restarts < 3 && it.N == 1 {
			victim := current[restarts]
			victim.kill()
			repl := startElasticNode(t, st, int64(100+restarts), "")
			var survivors []string
			for i, n := range current {
				if i != restarts {
					survivors = append(survivors, n.URL())
				}
			}
			repl.join(t, survivors...)
			current[restarts] = repl
			restarts++
			// The kill and the join must both be visible to the client
			// before this Do's next iteration: the dead node unrouted,
			// the replacement serving its rendezvous share.
			waitRoutable(t, rarch, []string{repl.URL()}, []string{victim.URL()})
		} else if it.N > 1 {
			postRestartIters++
		}
	})
	if restarts != 3 {
		t.Fatalf("only %d of 3 nodes were restarted mid-Do", restarts)
	}
	if postRestartIters == 0 {
		t.Fatal("no certify iterations ran after a restart; the faults were not mid-Do")
	}
	for i := range local {
		mustEqualResults(t, local[i], remote[i])
	}
	bgStop()
	bg.Wait()
	select {
	case err := <-bgErrs:
		t.Fatal(err)
	default:
	}

	st2 := rarch.RemoteStats()
	if st2.TopologySwaps < 3 {
		t.Fatalf("TopologySwaps = %d after 3 restarts, want >= 3", st2.TopologySwaps)
	}
	// The final view must be exactly the three replacements.
	var replURLs []string
	for _, n := range current {
		replURLs = append(replURLs, n.URL())
	}
	waitRoutable(t, rarch, replURLs, []string{nodes[0].URL(), nodes[1].URL(), nodes[2].URL()})
}

// TestElasticJoinWhileRetrieving grows the cluster mid-Do: a third node
// joins while a session retrieves, the client's refresher picks it up,
// and it starts serving its rendezvous share — with the result still
// bit-identical.
func TestElasticJoinWhileRetrieving(t *testing.T) {
	ds := datagen.GE("GE-elastic-join", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	local := doSequence(t, arch, ds.FieldNames, nil)

	nodes, st := startElasticCluster(t, arch, "ge", 2, "")
	rarch, err := Open(context.Background(), nodes[0].URL()+"/ge",
		WithEndpoints(nodes[1].URL()),
		WithReplication(2), WithTopologyRefresh(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rarch.Close()

	var joiner *elasticNode
	joined := false
	remote := doSequence(t, rarch, ds.FieldNames, func(step int, it Iteration) {
		if !joined {
			joined = true
			joiner = startElasticNode(t, st, 50, "")
			joiner.join(t, nodes[0].URL())
			waitRoutable(t, rarch, []string{joiner.URL()}, nil)
		}
	})
	if !joined {
		t.Fatal("join never happened mid-Do")
	}
	for i := range local {
		mustEqualResults(t, local[i], remote[i])
	}
	// The joiner took over its rendezvous share of the remaining fetches.
	served := false
	for _, ep := range rarch.RemoteStats().Endpoints {
		if ep.URL == joiner.URL() && ep.Requests > 0 {
			served = true
		}
	}
	if !served {
		t.Fatalf("joined node served no requests: %+v", rarch.RemoteStats().Endpoints)
	}
}

// TestElasticDrainUnderLoad retires a node gracefully while sessions
// retrieve: the admin-gated drain unroutes it from refreshing clients,
// new sessions are refused at its front door while fragment reads keep
// working, and retrieval completes bit-identically. The membership
// gauges are validated through the strict exposition parser.
func TestElasticDrainUnderLoad(t *testing.T) {
	ds := datagen.GE("GE-elastic-drain", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	local := doSequence(t, arch, ds.FieldNames, nil)

	nodes, _ := startElasticCluster(t, arch, "ge", 3, "sesame")
	rarch, err := Open(context.Background(), nodes[0].URL()+"/ge",
		WithEndpoints(nodes[1].URL(), nodes[2].URL()),
		WithReplication(2), WithTopologyRefresh(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rarch.Close()

	victim := nodes[2]
	drained := false
	remote := doSequence(t, rarch, ds.FieldNames, func(step int, it Iteration) {
		if !drained {
			drained = true
			req, err := http.NewRequest(http.MethodPost, victim.URL()+"/v1/cluster/drain", nil)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Authorization", "Bearer sesame")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("drain: status %d", resp.StatusCode)
			}
			waitRoutable(t, rarch, nil, []string{victim.URL()})
		}
	})
	if !drained {
		t.Fatal("drain never happened mid-Do")
	}
	for i := range local {
		mustEqualResults(t, local[i], remote[i])
	}

	// The drained node refuses new sessions but keeps serving fragments.
	resp, err := http.Get(victim.URL() + "/v1/d/ge/index")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("drained index: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drained index refusal has no Retry-After")
	}
	fresp, err := http.Get(victim.URL() + "/v1/d/ge/frag/" + ds.FieldNames[0] + "/0")
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != 200 {
		t.Fatalf("drained fragment read: status %d, want 200", fresp.StatusCode)
	}

	// Peers advertise it as draining; the victim's own gauges agree, and
	// the whole exposition still parses strictly.
	waitMembership(t, nodes[0].URL(), func(info server.ClusterInfo) bool {
		for _, m := range info.Members {
			if m.Addr == victim.URL() && m.State == server.MemberDraining {
				return true
			}
		}
		return false
	})
	mresp, err := http.Get(victim.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("drained node metrics failed strict parse: %v", err)
	}
	for _, want := range []string{
		"progqoid_cluster_drains_total 1",
		`progqoid_cluster_members{state="draining"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// refreshSource computes which of the given base URLs a client's
// topology refresher will consistently ask: the rendezvous winner for
// the "/v1/cluster" key, mirroring the client's pinned scoring (see the
// golden test in internal/client).
func refreshSource(urls []string) string {
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	hash := func(s string) uint64 {
		h := fnv.New64a()
		io.WriteString(h, s) //nolint:errcheck
		return h.Sum64()
	}
	kh := mix(hash("/v1/cluster"))
	best, bestScore := "", uint64(0)
	for _, u := range urls {
		if s := mix(hash(u) ^ kh); best == "" || s > bestScore || (s == bestScore && u < best) {
			best, bestScore = u, s
		}
	}
	return best
}

// TestElasticHeartbeatPartition falsely suspects a perfectly healthy
// node: its announcements are dropped at both peers, the peers' sweepers
// mark it suspect, refreshing clients route around it — and when the
// partition heals, its very next heartbeat restores it to alive with no
// special rejoin dance.
func TestElasticHeartbeatPartition(t *testing.T) {
	ds := datagen.GE("GE-elastic-part", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	local := doSequence(t, arch, ds.FieldNames, nil)

	nodes, _ := startElasticCluster(t, arch, "ge", 3, "")
	urls := []string{nodes[0].URL(), nodes[1].URL(), nodes[2].URL()}
	// The victim must not be the node the client polls for topology, or
	// the client would keep adopting the victim's own (partition-blind)
	// view of the cluster.
	src := refreshSource(urls)
	var victim *elasticNode
	for _, n := range nodes {
		if n.URL() != src {
			victim = n
		}
	}

	rarch, err := Open(context.Background(), nodes[0].URL()+"/ge",
		WithEndpoints(nodes[1].URL(), nodes[2].URL()),
		WithReplication(2), WithTopologyRefresh(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rarch.Close()
	waitRoutable(t, rarch, urls, nil)

	// Partition: both peers drop the victim's announcements.
	for _, n := range nodes {
		if n != victim {
			n.partitionFrom(victim.URL())
		}
	}
	waitMembership(t, src, func(info server.ClusterInfo) bool {
		for _, m := range info.Members {
			if m.Addr == victim.URL() && m.State == server.MemberSuspect {
				return true
			}
		}
		return false
	})
	waitRoutable(t, rarch, nil, []string{victim.URL()})

	// Retrieval during the partition: the suspected node is healthy but
	// unrouted; results stay bit-identical on the remaining two.
	remote := doSequence(t, rarch, ds.FieldNames, nil)
	for i := range local {
		mustEqualResults(t, local[i], remote[i])
	}

	// Heal. The victim's own next heartbeat — same generation, no rejoin
	// protocol — restores alive everywhere, and the client re-routes it.
	for _, n := range nodes {
		n.partitionFrom("")
	}
	waitMembership(t, src, func(info server.ClusterInfo) bool {
		alive := 0
		for _, m := range info.Members {
			if m.State == server.MemberAlive {
				alive++
			}
		}
		return alive == 3
	})
	waitRoutable(t, rarch, urls, nil)

	// The false suspicion was counted on at least one peer.
	suspected := false
	for _, n := range nodes {
		if n == victim {
			continue
		}
		resp, err := http.Get(n.URL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "progqoid_cluster_suspect_total") && !strings.HasSuffix(line, " 0") {
				suspected = true
			}
		}
	}
	if !suspected {
		t.Fatal("no peer counted the false suspicion")
	}
}

// TestElasticSplitMembershipView pins behavior when two clients hold
// different membership views — one bootstrapped from a node that
// suspects the victim, one from the (partition-blind) victim itself.
// Both complete bit-identically: membership disagreement affects
// routing, never results.
func TestElasticSplitMembershipView(t *testing.T) {
	ds := datagen.GE("GE-elastic-split", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	local := doSequence(t, arch, ds.FieldNames, nil)

	nodes, _ := startElasticCluster(t, arch, "ge", 3, "")
	victim := nodes[2]
	// One-sided partition: nodes 0 and 1 stop hearing the victim (and
	// suspect it); the victim keeps hearing them and believes the
	// cluster whole.
	nodes[0].partitionFrom(victim.URL())
	nodes[1].partitionFrom(victim.URL())
	for _, url := range []string{nodes[0].URL(), nodes[1].URL()} {
		waitMembership(t, url, func(info server.ClusterInfo) bool {
			for _, m := range info.Members {
				if m.Addr == victim.URL() && m.State == server.MemberSuspect {
					return true
				}
			}
			return false
		})
	}

	// Client A discovers the cluster through a suspecting node, client B
	// through the victim: genuinely split views (no refresh — each keeps
	// the view it bootstrapped).
	archA, err := Open(context.Background(), nodes[0].URL()+"/ge", WithPeerDiscovery(), WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	archB, err := Open(context.Background(), victim.URL()+"/ge", WithPeerDiscovery(), WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	viewA, viewB := archA.RemoteStats().Routable, archB.RemoteStats().Routable
	if len(viewA) != 2 {
		t.Fatalf("client A routable = %v, want the 2 non-suspect nodes", viewA)
	}
	if len(viewB) != 3 {
		t.Fatalf("client B routable = %v, want all 3 (victim is partition-blind)", viewB)
	}

	remoteA := doSequence(t, archA, ds.FieldNames, nil)
	remoteB := doSequence(t, archB, ds.FieldNames, nil)
	for i := range local {
		mustEqualResults(t, local[i], remoteA[i])
		mustEqualResults(t, local[i], remoteB[i])
	}
}
