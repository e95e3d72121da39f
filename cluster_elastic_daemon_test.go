package progqoi

// cluster_elastic_daemon_test.go is the daemon twin of the elastic
// membership suite: real progqoid processes form a cluster with
// -join/-heartbeat, and the rolling-restart and drain proofs from
// cluster_elastic_test.go are replayed against them — SIGKILL plus a
// same-address relaunch with a higher generation, and an admin-gated
// drain under load. Gated on PROGQOID_BIN like the rest of the daemon
// matrix (the cluster-e2e CI job builds the binary with -race).

import (
	"context"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"progqoi/internal/datagen"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

// startElasticDaemon launches one progqoid in elastic mode and waits for
// /healthz. seeds empty makes it a joinable founding node (-heartbeat
// alone turns membership on).
func startElasticDaemon(t *testing.T, bin, dir, addr, admin string, seeds []string) *daemonNode {
	t.Helper()
	args := []string{
		"-store", dir,
		"-addr", addr,
		"-advertise", "http://" + addr,
		"-heartbeat", "25ms",
		"-suspect-after", "150ms",
		"-remove-after", "600ms",
	}
	if len(seeds) > 0 {
		args = append(args, "-join", strings.Join(seeds, ","))
	}
	if admin != "" {
		args = append(args, "-admin", admin)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	node := &daemonNode{url: "http://" + addr, cmd: cmd}
	t.Cleanup(func() {
		node.cmd.Process.Kill() //nolint:errcheck // may already be dead
		node.cmd.Wait()         //nolint:errcheck
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(node.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return node
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon %s never became healthy: %v", node.url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestElasticDaemonRollingRestart SIGKILLs every node of a real elastic
// daemon cluster — one per Do of the tightening sequence — and relaunches
// each on the SAME address, where its fresh (higher) generation must win
// over the dead incarnation's membership entry. The client follows the
// churn through its topology refresher; results stay bit-identical.
func TestElasticDaemonRollingRestart(t *testing.T) {
	bin := os.Getenv("PROGQOID_BIN")
	if bin == "" {
		t.Skip("set PROGQOID_BIN to a built progqoid binary to run the elastic daemon e2e")
	}

	ds := datagen.GE("GE-daemon-roll", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := storage.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteArchive(context.Background(), st, "ge", arch.Variables()); err != nil {
		t.Fatal(err)
	}
	local := doSequence(t, arch, ds.FieldNames, nil)

	addrs := freeAddrs(t, 3)
	nodes := make([]*daemonNode, 3)
	var seeds []string
	for i, addr := range addrs {
		nodes[i] = startElasticDaemon(t, bin, dir, addr, "", seeds)
		seeds = append(seeds, nodes[i].url)
	}
	for _, n := range nodes {
		waitMembership(t, n.url, func(info server.ClusterInfo) bool {
			alive := 0
			for _, m := range info.Members {
				if m.State == server.MemberAlive {
					alive++
				}
			}
			return alive == 3
		})
	}

	rarch, err := Open(context.Background(), nodes[0].url+"/ge",
		WithEndpoints(nodes[1].url, nodes[2].url),
		WithReplication(2), WithTopologyRefresh(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rarch.Close()

	// Record each incarnation's generation: the same-address rejoin must
	// present a HIGHER one, or peers would reject it as the stale dead
	// incarnation announcing late.
	gen0 := map[string]int64{}
	info, err := clusterInfoFrom(t, nodes[0].url)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range info.Members {
		gen0[m.Addr] = m.Generation
	}

	restarts := 0
	remote := doSequence(t, rarch, ds.FieldNames, func(step int, it Iteration) {
		if step == restarts && restarts < 3 && it.N == 1 {
			victim := nodes[restarts]
			if err := victim.cmd.Process.Kill(); err != nil {
				t.Errorf("kill %s: %v", victim.url, err)
			}
			victim.cmd.Wait() //nolint:errcheck // SIGKILL is the point
			// Same address, new process: its Generation (boot time) is
			// higher, so peers replace the dead incarnation instead of
			// rejecting the rejoin as stale.
			survivor := nodes[(restarts+1)%3].url
			nodes[restarts] = startElasticDaemon(t, bin, dir,
				strings.TrimPrefix(victim.url, "http://"), "", []string{survivor})
			restarts++
			// The new incarnation must be adopted at its peers — alive,
			// with a generation the dead incarnation never had — before
			// this Do's remaining iterations proceed.
			waitMembership(t, survivor, func(info server.ClusterInfo) bool {
				for _, m := range info.Members {
					if m.Addr == victim.url && m.State == server.MemberAlive && m.Generation > gen0[m.Addr] {
						return true
					}
				}
				return false
			})
		}
	})
	if restarts != 3 {
		t.Fatalf("only %d of 3 daemons were restarted mid-Do", restarts)
	}
	for i := range local {
		mustEqualResults(t, local[i], remote[i])
	}
	// The fully restarted cluster converges back to 3 alive members, every
	// one of them a new incarnation.
	waitMembership(t, nodes[0].url, func(info server.ClusterInfo) bool {
		fresh := 0
		for _, m := range info.Members {
			if m.State == server.MemberAlive && m.Generation > gen0[m.Addr] {
				fresh++
			}
		}
		return fresh == 3
	})
}

// TestElasticDaemonDrain drains one daemon of a live elastic cluster via
// the admin-gated endpoint while a session retrieves: the node leaves
// the routable topology, refuses new sessions at its front door, and the
// retrieval completes bit-identically without it.
func TestElasticDaemonDrain(t *testing.T) {
	bin := os.Getenv("PROGQOID_BIN")
	if bin == "" {
		t.Skip("set PROGQOID_BIN to a built progqoid binary to run the elastic daemon e2e")
	}

	ds := datagen.GE("GE-daemon-drain", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := storage.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteArchive(context.Background(), st, "ge", arch.Variables()); err != nil {
		t.Fatal(err)
	}
	local := doSequence(t, arch, ds.FieldNames, nil)

	addrs := freeAddrs(t, 3)
	nodes := make([]*daemonNode, 3)
	var seeds []string
	for i, addr := range addrs {
		nodes[i] = startElasticDaemon(t, bin, dir, addr, "sesame", seeds)
		seeds = append(seeds, nodes[i].url)
	}
	rarch, err := Open(context.Background(), nodes[0].url+"/ge",
		WithEndpoints(nodes[1].url, nodes[2].url),
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
			req, err := http.NewRequest(http.MethodPost, victim.url+"/v1/cluster/drain", nil)
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
			waitRoutable(t, rarch, nil, []string{victim.url})
		}
	})
	if !drained {
		t.Fatal("drain never happened mid-Do")
	}
	for i := range local {
		mustEqualResults(t, local[i], remote[i])
	}
	resp, err := http.Get(victim.url + "/v1/d/ge/index")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("drained daemon index: status %d, want 503", resp.StatusCode)
	}
}
