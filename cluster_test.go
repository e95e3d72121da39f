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
	"math"
	"net/http/httptest"
	"testing"

	"progqoi/internal/datagen"
)

// startCluster serves one archive from n independent nodes.
func startCluster(t *testing.T, arch *Archive, name string, n int) []*httptest.Server {
	t.Helper()
	nodes := make([]*httptest.Server, n)
	for i := range nodes {
		hs := httptest.NewServer(serveArchiveHandler(t, arch, name))
		t.Cleanup(hs.Close)
		nodes[i] = hs
	}
	return nodes
}

// mustEqualResults asserts two retrievals agree bit for bit.
func mustEqualResults(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.EstErrors) != len(got.EstErrors) {
		t.Fatalf("%d vs %d estimated errors", len(want.EstErrors), len(got.EstErrors))
	}
	for k := range want.EstErrors {
		if want.EstErrors[k] != got.EstErrors[k] {
			t.Fatalf("QoI %d: certified error %g != %g", k, want.EstErrors[k], got.EstErrors[k])
		}
	}
	if want.RetrievedBytes != got.RetrievedBytes {
		t.Fatalf("retrieved %d != %d bytes", want.RetrievedBytes, got.RetrievedBytes)
	}
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%d vs %d data slices", len(want.Data), len(got.Data))
	}
	for v := range want.Data {
		if len(want.Data[v]) != len(got.Data[v]) {
			t.Fatalf("var %d: %d vs %d points", v, len(want.Data[v]), len(got.Data[v]))
		}
		for j := range want.Data[v] {
			if math.Float64bits(want.Data[v][j]) != math.Float64bits(got.Data[v][j]) {
				t.Fatalf("var %d point %d: %g != %g", v, j, want.Data[v][j], got.Data[v][j])
			}
		}
	}
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
	nodes := startCluster(t, arch, "ge", 3)

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
			nodes := startCluster(t, arch, "ge", 3)
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
