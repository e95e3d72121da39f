package progqoi

// remote_test.go proves the networked retrieval subsystem end to end:
// refactor → storage archive → real HTTP fragment service (httptest) →
// remote Retrieve. A remote session must certify the same error bounds,
// reconstruct bit-identical data, and account identical fragment bytes as
// a local session — with actual wire bytes at most the logical retrieved
// bytes on repeated workloads (the cache makes re-requests free), and the
// wire accounting agreeing with internal/netsim's recorder.

import (
	"context"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"progqoi/internal/datagen"
	"progqoi/internal/netsim"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

// serveArchiveHandler builds the real fragment-service handler over a
// local archive held in a MemStore.
func serveArchiveHandler(t *testing.T, arch *Archive, name string) *server.Server {
	t.Helper()
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, name, arch.Variables()); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(context.Background(), st, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveArchive exposes a local archive through the real HTTP service.
func serveArchive(t *testing.T, arch *Archive, name string) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(serveArchiveHandler(t, arch, name))
	t.Cleanup(hs.Close)
	return hs
}

// retrieveSequence runs the paper's tightening-tolerance workload on one
// session and returns per-step results.
func retrieveSequence(t *testing.T, sess *Session, qois []QoI, ranges []float64) []*Result {
	t.Helper()
	var out []*Result
	for _, rel := range []float64{1e-2, 1e-3, 1e-4} {
		targets := make([]Target, len(qois))
		for i, q := range qois {
			targets[i] = Target{QoI: q, Tolerance: rel, Relative: true, Range: ranges[i]}
		}
		res, err := sess.Do(context.Background(), Request{Targets: targets})
		if err != nil {
			t.Fatalf("rel %g: %v", rel, err)
		}
		out = append(out, res)
	}
	return out
}

func TestRemoteRetrieveMatchesLocalEndToEnd(t *testing.T) {
	ds := datagen.GE("GE-remote-e2e", 4, 300, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	hs := serveArchive(t, arch, "ge")

	rarch, err := Open(context.Background(), hs.URL+"/ge")
	if err != nil {
		t.Fatal(err)
	}
	if !rarch.Remote() || arch.Remote() {
		t.Fatal("Remote() flags wrong")
	}
	if rarch.StoredBytes() != arch.StoredBytes() {
		t.Fatalf("remote StoredBytes %d, local %d", rarch.StoredBytes(), arch.StoredBytes())
	}
	if got, want := rarch.FieldNames(), arch.FieldNames(); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("field names %v, want %v", got, want)
	}

	vtot := TotalVelocity(0, 1, 2)
	temp, err := ParseQoI("T", "Pressure/(287.1*Density)", ds.FieldNames)
	if err != nil {
		t.Fatal(err)
	}
	qois := []QoI{vtot, temp}
	ranges := QoIRanges(qois, ds.Fields)

	// Local reference run.
	lsess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	local := retrieveSequence(t, lsess, qois, ranges)

	// Remote run inside the network simulator's accounting, so the virtual
	// wire model and the real wire agree on what crossed.
	var remote []*Result
	var recBytes int64
	run, err := netsim.Run(1, 1, netsim.DefaultGlobusLink, func(_ int, rec *netsim.Recorder) error {
		rsess, err := rarch.Open(WithFetchObserver(rec.Observe))
		if err != nil {
			return err
		}
		remote = retrieveSequence(t, rsess, qois, ranges)
		recBytes = rec.Bytes()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for step := range local {
		l, r := local[step], remote[step]
		if !r.ToleranceMet {
			t.Fatalf("step %d: remote tolerance not met", step)
		}
		for k := range qois {
			if l.EstErrors[k] != r.EstErrors[k] {
				t.Fatalf("step %d QoI %d: certified error %g (local) != %g (remote)",
					step, k, l.EstErrors[k], r.EstErrors[k])
			}
		}
		if l.RetrievedBytes != r.RetrievedBytes {
			t.Fatalf("step %d: retrieved %d (local) != %d (remote)", step, l.RetrievedBytes, r.RetrievedBytes)
		}
		if len(l.Data) != len(r.Data) {
			t.Fatalf("step %d: %d vs %d data slices", step, len(l.Data), len(r.Data))
		}
		for v := range l.Data {
			if (l.Data[v] == nil) != (r.Data[v] == nil) {
				t.Fatalf("step %d var %d: nil-ness differs", step, v)
			}
			for j := range l.Data[v] {
				if math.Float64bits(l.Data[v][j]) != math.Float64bits(r.Data[v][j]) {
					t.Fatalf("step %d var %d point %d: %g (local) != %g (remote)",
						step, v, j, l.Data[v][j], r.Data[v][j])
				}
			}
		}
	}

	// Wire accounting: a cold client fetches exactly the fragment bytes the
	// session logically retrieved, and the netsim recorder — observing the
	// same session — must agree byte for byte.
	finalLogical := remote[len(remote)-1].RetrievedBytes
	if recBytes != finalLogical {
		t.Fatalf("netsim recorder %d bytes != session RetrievedBytes %d", recBytes, finalLogical)
	}
	if run.TotalBytes != finalLogical {
		t.Fatalf("netsim run total %d != session RetrievedBytes %d", run.TotalBytes, finalLogical)
	}
	st := rarch.RemoteStats()
	if st.WireBytes != finalLogical {
		t.Fatalf("cold client wire bytes %d != logical %d", st.WireBytes, finalLogical)
	}

	// Repeated workload: a second session re-requests every fragment, so
	// its logical bytes match, but the shared cache keeps them off the
	// wire — wire bytes must not grow (strictly less than 2× logical).
	rsess2, err := rarch.Open()
	if err != nil {
		t.Fatal(err)
	}
	remote2 := retrieveSequence(t, rsess2, qois, ranges)
	if got := remote2[len(remote2)-1].RetrievedBytes; got != finalLogical {
		t.Fatalf("second session retrieved %d, want %d", got, finalLogical)
	}
	st2 := rarch.RemoteStats()
	if st2.WireBytes != st.WireBytes {
		t.Fatalf("repeat workload leaked onto the wire: %d -> %d bytes", st.WireBytes, st2.WireBytes)
	}
	if st2.CacheHits == 0 {
		t.Fatal("repeat workload recorded no cache hits")
	}

	// Certified bounds must dominate the ground truth on the remote
	// reconstruction too.
	final := remote2[len(remote2)-1]
	actual := ActualQoIErrors(qois, ds.Fields, final.Data)
	for k := range qois {
		if actual[k] > final.EstErrors[k] {
			t.Fatalf("QoI %d: actual error %g exceeds certified %g", k, actual[k], final.EstErrors[k])
		}
	}
}

func TestOpenUnknownRemoteDataset(t *testing.T) {
	ds := datagen.GE("GE-remote-404", 4, 64, 3)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	hs := serveArchive(t, arch, "ge")
	if _, err := Open(context.Background(), hs.URL+"/missing"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestOpenCloseReleasesConnections: an archive opened without
// WithHTTPClient dials through a transport of its own — and, with peer
// discovery, so does the throw-away client that asks the seed node for its
// topology. Close must drop their idle connections: each one left behind
// pins a read and a write goroutine here and a serving goroutine on the
// node, so a consumer that opens archives in a loop would grow without
// bound.
func TestOpenCloseReleasesConnections(t *testing.T) {
	ds := datagen.GE("GE-open-close", 2, 64, 3)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	hs := serveArchive(t, arch, "ge")
	for _, tc := range []struct {
		name string
		opts []RemoteOption
	}{
		{"default client", nil},
		{"peer discovery", []RemoteOption{WithPeerDiscovery()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycle := func() {
				rarch, err := Open(context.Background(), hs.URL+"/ge", tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				rarch.Close()
			}
			cycle() // whatever the first request starts for good is in the baseline
			const cycles, slack = 50, 5
			before := runtime.NumGoroutine()
			for i := 0; i < cycles; i++ {
				cycle()
			}
			// The node's side of a closed connection exits when it reads the
			// EOF, not when Close returns: give it a moment.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+slack && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before+slack {
				t.Fatalf("%d goroutines before %d open/close cycles, %d after", before, cycles, after)
			}
		})
	}
}
