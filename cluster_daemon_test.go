package progqoi

// cluster_daemon_test.go is the CI cluster-e2e matrix: it drives real
// progqoid processes — not in-process handlers — through the whole
// cluster story: pack an archive directory, launch a 3-node sharded
// cluster on loopback with -peers/-advertise topology, open it with peer
// discovery, and SIGKILL one node in the middle of a Do. Retrieval must
// complete through replica failover with results bit-identical to a
// local session.
//
// The test needs a built daemon and real ports, so it only runs when
// PROGQOID_BIN points at a progqoid binary (the cluster-e2e CI job builds
// one with -race); otherwise it skips and `go test ./...` stays hermetic.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"progqoi/internal/datagen"
	"progqoi/internal/storage"
)

// daemonNode is one running progqoid process.
type daemonNode struct {
	url string
	cmd *exec.Cmd
}

func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// startDaemons launches an n-node progqoid cluster over dir and waits for
// every node to answer /healthz.
func startDaemons(t *testing.T, bin, dir string, n int) []*daemonNode {
	t.Helper()
	addrs := freeAddrs(t, n)
	nodes := make([]*daemonNode, n)
	for i, addr := range addrs {
		var peers []string
		for j, other := range addrs {
			if j != i {
				peers = append(peers, "http://"+other)
			}
		}
		cmd := exec.Command(bin,
			"-dir", dir,
			"-addr", addr,
			"-advertise", "http://"+addr,
			"-peers", strings.Join(peers, ","))
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
		nodes[i] = node
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, node := range nodes {
		for {
			resp, err := http.Get(node.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == 200 {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became healthy: %v", node.url, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nodes
}

func TestClusterDaemonE2E(t *testing.T) {
	bin := os.Getenv("PROGQOID_BIN")
	if bin == "" {
		t.Skip("set PROGQOID_BIN to a built progqoid binary to run the daemon cluster e2e")
	}

	ds := datagen.GE("GE-daemon-e2e", 4, 220, 5)
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

	req := clusterRequest(t, ds.FieldNames)
	lsess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	local, err := lsess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	for victim := 0; victim < 3; victim++ {
		t.Run(fmt.Sprintf("kill-node-%d", victim), func(t *testing.T) {
			nodes := startDaemons(t, bin, dir, 3)

			// Peer discovery: the client is told one node and must learn
			// the rest from the daemon's -peers/-advertise topology.
			rarch, err := Open(context.Background(), nodes[0].url+"/ge", WithPeerDiscovery())
			if err != nil {
				t.Fatal(err)
			}
			if eps := rarch.RemoteStats().Endpoints; len(eps) != 3 {
				t.Fatalf("discovered %d endpoints, want 3: %+v", len(eps), eps)
			}
			rsess, err := rarch.Open()
			if err != nil {
				t.Fatal(err)
			}
			killed := false
			kreq := req
			kreq.OnProgress = func(it Iteration) {
				if !killed {
					killed = true
					if err := nodes[victim].cmd.Process.Kill(); err != nil {
						t.Errorf("kill node %d: %v", victim, err)
					}
					nodes[victim].cmd.Wait() //nolint:errcheck // SIGKILL is the point
				}
			}
			remote, err := rsess.Do(context.Background(), kreq)
			if err != nil {
				t.Fatalf("Do with node %d SIGKILLed mid-flight: %v", victim, err)
			}
			if !killed {
				t.Fatal("retrieval finished in one iteration; the kill never happened mid-Do")
			}
			mustEqualResults(t, local, remote)
			st := rarch.RemoteStats()
			if st.Failovers == 0 {
				t.Fatalf("no rerouted fetches after SIGKILLing node %d: %+v", victim, st)
			}

			// A surviving node's /metrics must expose the serving counters
			// the cluster story depends on.
			alive := (victim + 1) % 3
			resp, err := http.Get(nodes[alive].url + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			mbody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"progqoid_batch_requests_total",
				"progqoid_hot_cache_hits_total",
				"progqoid_fragment_bytes_total",
			} {
				if !strings.Contains(string(mbody), want) {
					t.Fatalf("/metrics on survivor missing %s", want)
				}
			}
		})
	}
}
