package progqoi

// objstore_e2e_test.go certifies the stateless serving tier end to end:
// archives live only in an S3-compatible bucket (the hermetic miniobj
// mock), and every consumer path — direct s3:// Open, a single fragment
// service, a 3-node sharded cluster — must produce retrievals
// bit-identical to a local session while fetching fragments with
// authenticated ranged GETs. The fault matrix drives the transport
// through 403 at boot, 503 and truncation mid-Do, and a bucket
// republished mid-session, which must surface as a typed error rather
// than stale bytes. The reconciliation check ties three independent
// ledgers together: per-fetch trace spans, the store's cold-fetch
// counters, and the daemon's /metrics exposition.
//
// Everything is in-process and hermetic; the objstore-e2e CI job runs
// this file under -race.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/obs"
	"progqoi/internal/server"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
	"progqoi/internal/storage/objstore/miniobj"
)

const (
	e2eBucket = "archives"
	e2ePrefix = "team/v1"
	e2eAccess = "AKIDE2E"
	e2eSecret = "e2e-secret/with+chars"
)

// seedBucket refactors the test dataset and packs it into a fresh mock
// bucket through the signed PUT path — no archive bytes ever touch local
// disk. It returns the bucket, the in-memory archive (the ground truth)
// and the generated fields.
func seedBucket(t *testing.T) (*miniobj.Server, *Archive, *datagen.Dataset) {
	t.Helper()
	ds := datagen.GE("GE-objstore", 4, 220, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	srv := miniobj.New(e2eBucket, miniobj.Credentials{AccessKey: e2eAccess, SecretKey: e2eSecret})
	t.Cleanup(srv.Close)
	seed := bucketStore(t, srv, nil)
	if err := storage.WriteArchive(context.Background(), seed, "ge", arch.Variables()); err != nil {
		t.Fatal(err)
	}
	return srv, arch, ds
}

// bucketStore opens an objstore client on the mock bucket; mutate tweaks
// the options per test.
func bucketStore(t *testing.T, srv *miniobj.Server, mutate func(*objstore.Options)) *objstore.Store {
	t.Helper()
	o := objstore.Options{
		Endpoint:  srv.URL(),
		Bucket:    e2eBucket,
		Prefix:    e2ePrefix,
		AccessKey: e2eAccess,
		SecretKey: e2eSecret,
	}
	if mutate != nil {
		mutate(&o)
	}
	st, err := objstore.New(o)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// openBucket opens the seeded dataset through the public s3:// path.
func openBucket(t *testing.T, srv *miniobj.Server, opts ...RemoteOption) *Archive {
	t.Helper()
	ref := fmt.Sprintf("s3://%s/%s/ge", e2eBucket, e2ePrefix)
	opts = append([]RemoteOption{
		WithS3Endpoint(srv.URL()),
		WithS3Credentials(e2eAccess, e2eSecret),
	}, opts...)
	arch, err := Open(context.Background(), ref, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return arch
}

func doOnce(t *testing.T, arch *Archive, req Request) *Result {
	t.Helper()
	sess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOpenSchemesMatchEndToEnd is the unified-Open acceptance: the same
// dataset reached through a bare path, file://, http:// (fragment
// service) and s3:// (object store) yields bit-identical retrievals.
func TestOpenSchemesMatchEndToEnd(t *testing.T) {
	srv, arch, ds := seedBucket(t)
	req := clusterRequest(t, ds.FieldNames)
	local := doOnce(t, arch, req)

	dir := t.TempDir()
	dst, err := storage.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteArchive(context.Background(), dst, "ge", arch.Variables()); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(serveArchiveHandler(t, arch, "ge", server.Options{}))
	defer hs.Close()

	refs := map[string]func(t *testing.T) *Archive{
		"bare path": func(t *testing.T) *Archive {
			a, err := Open(context.Background(), dir+"/ge")
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"file scheme": func(t *testing.T) *Archive {
			a, err := Open(context.Background(), "file://"+dir+"/ge")
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"http scheme": func(t *testing.T) *Archive {
			a, err := Open(context.Background(), hs.URL+"/ge")
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"s3 scheme": func(t *testing.T) *Archive { return openBucket(t, srv) },
	}
	for name, open := range refs {
		t.Run(name, func(t *testing.T) {
			a := open(t)
			mustEqualResults(t, local, doOnce(t, a, req))
			if name == "s3 scheme" {
				if !a.StoreBacked() {
					t.Fatal("s3 archive does not report StoreBacked")
				}
				if st := a.StoreStats(); st.ColdFetches == 0 || st.ColdFetchBytes == 0 {
					t.Fatalf("no cold fetches recorded: %+v", st)
				}
			} else if a.StoreBacked() {
				t.Fatalf("%s archive claims to be store-backed", name)
			}
		})
	}
}

// TestObjstoreFaultMatrix drives the bucket transport through the faults
// the stateless tier must absorb (transient) or refuse (integrity).
func TestObjstoreFaultMatrix(t *testing.T) {
	srv, arch, ds := seedBucket(t)
	req := clusterRequest(t, ds.FieldNames)
	local := doOnce(t, arch, req)

	t.Run("denied bucket fails open with a typed error", func(t *testing.T) {
		srv.Deny403(true)
		defer srv.Deny403(false)
		ref := fmt.Sprintf("s3://%s/%s/ge", e2eBucket, e2ePrefix)
		_, err := Open(context.Background(), ref,
			WithS3Endpoint(srv.URL()), WithS3Credentials(e2eAccess, "wrong-secret"))
		if !errors.Is(err, objstore.ErrAccessDenied) {
			t.Fatalf("open against denied bucket = %v, want ErrAccessDenied", err)
		}
	})

	t.Run("503 and truncation mid-Do are retried bit-identically", func(t *testing.T) {
		// Cache off: every fragment read must survive the wire faults.
		a := openBucket(t, srv, WithCache(-1))
		srv.Fail503(2)
		mustEqualResults(t, local, doOnce(t, a, req))
		srv.TruncateNext(1)
		mustEqualResults(t, local, doOnce(t, a, req))
	})

	t.Run("republished object mid-session errors, never stale bytes", func(t *testing.T) {
		a := openBucket(t, srv, WithCache(-1))
		sess, err := a.Open()
		if err != nil {
			t.Fatal(err)
		}
		loose := clusterRequest(t, ds.FieldNames)
		for i := range loose.Targets {
			loose.Targets[i].Tolerance = 1e-1
		}
		first, err := sess.Do(context.Background(), loose)
		if err != nil {
			t.Fatal(err)
		}
		// The bucket is republished under the session's feet: every
		// variable blob changes, so its pinned ETag no longer matches.
		changed := 0
		for _, k := range srv.Keys() {
			if strings.HasSuffix(k, ".var") && srv.Mutate(k, []byte("republished archive bytes")) {
				changed++
			}
		}
		if changed == 0 {
			t.Fatal("no variable blobs mutated; the fault was never injected")
		}
		_, err = sess.Do(context.Background(), req)
		if !errors.Is(err, objstore.ErrETagChanged) {
			t.Fatalf("tightening over a republished bucket = %v, want ErrETagChanged", err)
		}
		// The certified result from before the republish is untouched.
		if !first.ToleranceMet {
			t.Fatal("pre-republish retrieval lost its certificate")
		}
	})
}

// scrapeMetrics fetches a node's Prometheus text exposition: the bytes an
// operator's scraper sees.
func scrapeMetrics(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // test scrape
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics: %s", url, resp.Status)
	}
	return body
}

// metricValue scrapes one counter from a node's /metrics.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(scrapeMetrics(t, url))
	if m == nil {
		t.Fatalf("/metrics has no %s", name)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// tracedStore hands every read of a node's store the node's trace in its
// context, which is how store-fetch spans are recorded.
type tracedStore struct {
	*objstore.Store
	tr *obs.Trace
}

func (s tracedStore) Get(ctx context.Context, key string) ([]byte, error) {
	return s.Store.Get(obs.ContextWithTrace(ctx, s.tr), key)
}

func (s tracedStore) GetRange(ctx context.Context, key string, off, length int64) ([]byte, error) {
	return s.Store.GetRange(obs.ContextWithTrace(ctx, s.tr), key, off, length)
}

// TestObjstoreClusterZeroLocalFiles is the acceptance centerpiece: three
// fragment-service nodes, each backed by its own object-store client over
// one bucket, serve a mixed-target Do with zero archive bytes on local
// disk — bit-identical to local, surviving one node killed mid-Do — and
// the bytes reconcile across all three ledgers: trace spans, cold-fetch
// counters, and /metrics.
func TestObjstoreClusterZeroLocalFiles(t *testing.T) {
	srv, arch, ds := seedBucket(t)
	req := clusterRequest(t, ds.FieldNames)
	local := doOnce(t, arch, req)

	const n = 3
	traces := make([]*obs.Trace, n)
	stores := make([]*objstore.Store, n)
	nodes := make([]*httptest.Server, n)
	for i := range stores {
		traces[i] = obs.NewTrace()
		stores[i] = bucketStore(t, srv, nil)
		fsrv, err := server.New(context.Background(), tracedStore{stores[i], traces[i]}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(fsrv)
		t.Cleanup(hs.Close)
		nodes[i] = hs
	}

	rarch, err := Open(context.Background(), nodes[0].URL+"/ge",
		WithEndpoints(nodes[1].URL, nodes[2].URL), WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	rsess, err := rarch.Open()
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	killed := false
	kreq := req
	kreq.OnProgress = func(it Iteration) {
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
	if st := rarch.RemoteStats(); st.Failovers == 0 {
		t.Fatalf("no rerouted fetches after killing node %d: %+v", victim, st)
	}

	// Reconciliation: on every node the summed bytes of its store-fetch
	// trace spans must equal its cold-fetch counter, and a survivor's
	// /metrics must expose exactly that counter. The cluster as a whole
	// must have actually fetched from the bucket.
	var clusterCold int64
	for i, tr := range traces {
		var spanBytes, spans int64
		for _, sp := range tr.Spans() {
			if sp.Cat == obs.CatStore {
				spanBytes += sp.Bytes
				spans++
			}
		}
		fs := stores[i].FetchStats()
		if spanBytes != fs.ColdFetchBytes {
			t.Fatalf("node %d: %d span bytes over %d store spans != %d cold-fetch bytes",
				i, spanBytes, spans, fs.ColdFetchBytes)
		}
		clusterCold += fs.ColdFetchBytes
	}
	if clusterCold == 0 {
		t.Fatal("no node fetched anything from the bucket")
	}
	survivor := 0
	got := metricValue(t, nodes[survivor].URL, "progqoid_store_cold_fetch_bytes_total")
	if want := float64(stores[survivor].FetchStats().ColdFetchBytes); got != want {
		t.Fatalf("survivor /metrics cold-fetch bytes = %v, store counter = %v", got, want)
	}
	if gets, _, _, _ := srv.Stats(); gets == 0 {
		t.Fatal("mock bucket observed no GETs")
	}
}
