package progqoi

// cluster_test.go proves the sharded fragment cluster end to end, in
// process: three real fragment services (httptest) serve one archive, a
// remote archive opens against all three, and retrieval must be
// bit-identical to a local session — including when one node is killed in
// the middle of a Do, in which case the fetches it owned fail over to the
// surviving replicas. This is the same invariant the cluster-e2e CI job
// certifies against real progqoid processes (see cluster_daemon_test.go).

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/server"
)

// startCluster serves one archive from n independent nodes, each
// configured by opt.
func startCluster(t *testing.T, arch *Archive, name string, n int, opt server.Options) []*httptest.Server {
	t.Helper()
	nodes := make([]*httptest.Server, n)
	for i := range nodes {
		hs := httptest.NewServer(serveArchiveHandler(t, arch, name, opt))
		t.Cleanup(hs.Close)
		nodes[i] = hs
	}
	return nodes
}

// mustEqualResults asserts two retrievals agree bit for bit.
func mustEqualResults(t *testing.T, want, got *Result) {
	t.Helper()
	if err := sameResult(want, got); err != nil {
		t.Fatal(err)
	}
}

// sameResult reports the first way two retrievals differ, or nil when
// they agree bit for bit.
func sameResult(want, got *Result) error {
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

func clusterRequest(t *testing.T, fields []string) Request {
	t.Helper()
	vtot := TotalVelocity(0, 1, 2)
	temp, err := ParseQoI("T", "Pressure/(287.1*Density)", fields)
	if err != nil {
		t.Fatal(err)
	}
	return Request{Targets: []Target{
		{QoI: vtot, Tolerance: 2e-4},
		{QoI: temp, Tolerance: 2e-4},
	}}
}

func TestClusterRetrieveMatchesLocal(t *testing.T) {
	ds := datagen.GE("GE-cluster", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	nodes := startCluster(t, arch, "ge", 3, server.Options{})

	lsess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	req := clusterRequest(t, ds.FieldNames)
	local, err := lsess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	rarch, err := Open(context.Background(), nodes[0].URL+"/ge",
		WithEndpoints(nodes[1].URL, nodes[2].URL))
	if err != nil {
		t.Fatal(err)
	}
	rsess, err := rarch.Open()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := rsess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, local, remote)
	st := rarch.RemoteStats()
	if st.Failovers != 0 {
		t.Fatalf("healthy cluster recorded %d failovers", st.Failovers)
	}
	if len(st.Endpoints) != 3 {
		t.Fatalf("stats report %d endpoints", len(st.Endpoints))
	}
	// Sharding must actually spread the wire load.
	active := 0
	for _, ep := range st.Endpoints {
		if ep.Requests > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("cluster fetches used %d of 3 nodes", active)
	}
}

func TestClusterFailoverMidDoMatchesLocal(t *testing.T) {
	ds := datagen.GE("GE-cluster-kill", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
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
			nodes := startCluster(t, arch, "ge", 3, server.Options{})
			rarch, err := Open(context.Background(), nodes[0].URL+"/ge",
				WithEndpoints(nodes[1].URL, nodes[2].URL), WithReplication(2))
			if err != nil {
				t.Fatal(err)
			}
			rsess, err := rarch.Open()
			if err != nil {
				t.Fatal(err)
			}
			killed := false
			kreq := req
			kreq.OnProgress = func(it Iteration) {
				// Kill the victim after the first certify-loop iteration:
				// fetches already landed from it, and the iterations still
				// to come must reroute to its replicas mid-Do.
				if !killed {
					killed = true
					nodes[victim].CloseClientConnections()
					nodes[victim].Close()
				}
			}
			remote, err := rsess.Do(context.Background(), kreq)
			if err != nil {
				t.Fatalf("Do with node %d killed mid-flight: %v", victim, err)
			}
			if !killed {
				t.Fatal("retrieval finished in one iteration; the kill never happened mid-Do")
			}
			mustEqualResults(t, local, remote)
			st := rarch.RemoteStats()
			if st.Failovers == 0 {
				t.Fatalf("no rerouted fetches recorded after killing node %d: %+v", victim, st)
			}
			var victimErrors int64
			for _, ep := range st.Endpoints {
				if ep.URL == nodes[victim].URL {
					victimErrors = ep.Errors
				}
			}
			if victimErrors == 0 {
				t.Fatalf("killed node %d shows no endpoint errors: %+v", victim, st.Endpoints)
			}
		})
	}
}

// postGauge is a transport that counts batch POSTs in flight from the
// start of their round trip until the client closes the response body: the
// span in which the session holds the POST. The server cannot count it:
// net/http may put a large body on the wire before the handler returns, so
// the client can read it and send its next POST while that handler is
// still unwinding.
type postGauge struct {
	base           http.RoundTripper
	inflight, peak atomic.Int64
}

func (g *postGauge) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/frags") {
		return g.base.RoundTrip(r)
	}
	n := g.inflight.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	resp, err := g.base.RoundTrip(r)
	if err != nil {
		g.inflight.Add(-1)
		return nil, err
	}
	resp.Body = &gaugedBody{ReadCloser: resp.Body, done: sync.OnceFunc(func() { g.inflight.Add(-1) })}
	return resp, nil
}

type gaugedBody struct {
	io.ReadCloser
	done func()
}

func (b *gaugedBody) Close() error {
	defer b.done()
	return b.ReadCloser.Close()
}

// TestSessionWorkersBoundBatchPosts: a remote session's per-node batch
// POSTs run as tasks on its WithWorkers budget, so a session opened with
// WithWorkers(n) never has more than n of them in flight across the
// cluster. One client-side gauge spans all three nodes.
func TestSessionWorkersBoundBatchPosts(t *testing.T) {
	ds := datagen.GE("GE-cluster", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	nodes := startCluster(t, arch, "ge", 3, server.Options{})
	req := clusterRequest(t, ds.FieldNames)
	for _, workers := range []int{1, 2} {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		gauge := &postGauge{base: tr}
		rarch, err := Open(context.Background(), nodes[0].URL+"/ge",
			WithEndpoints(nodes[1].URL, nodes[2].URL), WithCache(-1), WithHTTPClient(&http.Client{Transport: gauge}))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := rarch.Open(WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		used := 0
		for _, ep := range rarch.RemoteStats().Endpoints {
			if ep.Requests > 0 {
				used++
			}
		}
		rarch.Close()
		tr.CloseIdleConnections()
		if used < 2 {
			t.Fatalf("workers %d: fetches used %d of 3 nodes", workers, used)
		}
		if got := gauge.peak.Load(); got < 1 || got > int64(workers) {
			t.Fatalf("workers %d: %d batch POSTs in flight at once", workers, got)
		}
	}
}
