package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"progqoi"
	"progqoi/internal/datagen"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

// clusterBench is do-cluster3-s3d: the serve path. Three in-process
// server.New nodes on loopback share one DirStore; two clients climb the
// ladder against them with the fragment cache off, so every fragment
// crosses the wire on every op.
type clusterBench struct {
	*ladder
	nodes []*server.Server
	https []*httptest.Server
	tr    *http.Transport
	hc    *http.Client
	urls  []string // stable node names, see nodeName

	before []server.Stats
}

const (
	clusterNodes = 3
	// One tenant whose limit two closed-loop clients can never reach.
	benchTenant = "bench-tenant-0123456789"
	tenantRate  = 1e6
)

// nodeName is the URL clients are given for node i. Fragments shard over
// nodes by rendezvous hashing of (node URL, variable, fragment), so
// ephemeral listener ports would reshuffle the shards — and with them the
// request count and the hot-cache hit ratio — on every run. Stable names
// dialled to the real listeners keep those counts a function of the seed.
func nodeName(i int) string { return fmt.Sprintf("node%d.bench.invalid", i) }

func s3dDataset(cfg config) *datagen.Dataset {
	if cfg.size == toySize {
		return datagen.S3D(6, 8, 10, cfg.seed)
	}
	return datagen.S3D(24, 32, 20, cfg.seed)
}

// keepAliveClient is the HTTP client the remote workloads hand to Open
// through WithHTTPClient: one per process, as a consumer that opens
// datasets repeatedly would keep, so connections are reused across ops.
// (Open's default builds a fresh transport per archive whose idle
// connections Archive.Close leaves behind.) names maps stable host:port
// pairs onto real listener addresses.
func keepAliveClient(names map[string]string) (*http.Transport, *http.Client) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.ResponseHeaderTimeout = 30 * time.Second
	tr.MaxIdleConnsPerHost = 8
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := names[addr]; ok {
			addr = real
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	return tr, &http.Client{Transport: tr}
}

func setupCluster(ctx context.Context, cfg config) (instance, error) {
	l, err := newLadder(ctx, cfg, "s3d", s3dDataset(cfg))
	if err != nil {
		return nil, err
	}
	st, err := storage.NewDirStore(filepath.Join(cfg.workDir, "cluster-store"))
	if err != nil {
		return nil, err
	}
	if err := l.writeArchive(ctx, st); err != nil {
		return nil, err
	}
	b := &clusterBench{ladder: l}
	names := map[string]string{}
	for i := 0; i < clusterNodes; i++ {
		// Half a node's rendezvous share of the stored bytes. The ladder
		// stops at 1e-5 having touched under a fifth of them, so in steady
		// state a node's share of what the ops ask for fits and every
		// lookup hits; sized to the touched bytes instead, the LRU thrashes
		// and the hit ratio follows the two clients' relative phase
		// (0.28 to 0.48 between runs), which no bound on latency survives.
		node, err := server.New(ctx, st, server.Options{
			HotCacheBytes: l.ref.StoredBytes() / 6,
			Tenants:       []server.Tenant{{Name: "bench", Token: benchTenant, RateLimit: tenantRate, Burst: tenantRate}},
		})
		if err != nil {
			b.close() //nolint:errcheck // the set-up error is the one to report
			return nil, err
		}
		hs := httptest.NewServer(node)
		b.nodes = append(b.nodes, node)
		b.https = append(b.https, hs)
		b.urls = append(b.urls, "http://"+nodeName(i))
		names[nodeName(i)+":80"] = hs.Listener.Addr().String()
	}
	b.tr, b.hc = keepAliveClient(names)
	l.open = func(ctx context.Context) (*progqoi.Archive, error) {
		return b.openWith(ctx, b.hc, progqoi.WithCache(-1))
	}
	l.openMetric = "client.open_s"
	l.counters = func(a *progqoi.Archive) map[string]float64 {
		s := a.RemoteStats()
		return map[string]float64{
			"client.wire_requests": float64(s.WireRequests),
			"client.wire_mb":       float64(s.WireBytes) / 1e6,
			"client.fragments":     float64(s.FragmentsFetched),
			"client.retried":       float64(s.Failovers + s.RetryPasses + s.RateLimited),
		}
	}
	return b, nil
}

func (b *clusterBench) openWith(ctx context.Context, hc *http.Client, opts ...progqoi.RemoteOption) (*progqoi.Archive, error) {
	opts = append(opts, progqoi.WithEndpoints(b.urls[1:]...), progqoi.WithToken(benchTenant), progqoi.WithHTTPClient(hc))
	return progqoi.Open(ctx, b.urls[0]+"/"+b.dataset, opts...)
}

func (b *clusterBench) phaseBegin() {
	b.before = b.before[:0]
	for _, n := range b.nodes {
		b.before = append(b.before, n.Stats())
	}
}

func (b *clusterBench) phaseEnd(_ context.Context, ops int) (map[string]float64, error) {
	var requests, hits, misses int64
	for i, n := range b.nodes {
		s := n.Stats()
		requests += s.Requests - b.before[i].Requests
		hits += s.HotCacheHits - b.before[i].HotCacheHits
		misses += s.HotCacheMisses - b.before[i].HotCacheMisses
	}
	return map[string]float64{
		"server.requests":           float64(requests) / float64(ops),
		"server.hotcache_hit_ratio": float64(hits) / float64(hits+misses),
	}, nil
}

func (b *clusterBench) close() error {
	for _, hs := range b.https {
		hs.Close()
	}
	if b.tr != nil {
		b.tr.CloseIdleConnections()
	}
	return nil
}

// post is one batched fragment request the op sent.
type post struct {
	node int
	path string
	body []byte
}

// recordingTransport copies the body of every POST on its way out.
type recordingTransport struct {
	next  http.RoundTripper
	nodes map[string]int // URL host -> node index

	mu    sync.Mutex
	posts []post // guarded by mu
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close() //nolint:errcheck // fully read
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		t.mu.Lock()
		t.posts = append(t.posts, post{t.nodes[req.URL.Host], req.URL.Path, body})
		t.mu.Unlock()
	}
	return t.next.RoundTrip(req)
}

// capture runs one op through a recording client and returns its batched
// fragment requests: the real inputs of the server-side replays.
func (b *clusterBench) capture(ctx context.Context) ([]post, error) {
	rt := &recordingTransport{next: b.tr, nodes: map[string]int{}}
	for i := range b.urls {
		rt.nodes[nodeName(i)] = i
	}
	l := *b.ladder
	l.open = func(ctx context.Context) (*progqoi.Archive, error) {
		return b.openWith(ctx, &http.Client{Transport: rt}, progqoi.WithCache(-1))
	}
	if res := l.opWith(ctx, nil, probeOp); res.err != nil {
		return nil, res.err
	}
	return rt.posts, nil
}

// serve replays one request into a node's handler, no socket involved.
func (b *clusterBench) serve(ctx context.Context, p post, gzip bool) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.urls[p.node]+p.path, bytes.NewReader(p.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+benchTenant)
	if gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	w := httptest.NewRecorder()
	b.nodes[p.node].ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return 0, fmt.Errorf("replayed %s on node %d: status %d", p.path, p.node, w.Code)
	}
	return w.Body.Len(), nil
}

// fetch sends one request over loopback with the plain net/http client
// (which asks for gzip and decodes it, as the remote client's does).
func (b *clusterBench) fetch(ctx context.Context, method, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+benchTenant)
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	return nil
}

func (b *clusterBench) probes(ctx context.Context, rec *recorder, reps int, _ time.Duration) (map[string]float64, error) {
	out, err := b.decodeProbes(ctx, rec, reps)
	if err != nil {
		return nil, err
	}
	posts, err := b.capture(ctx)
	if err != nil {
		return nil, err
	}
	var handler, handlerGz, overHTTP, index, warm []float64
	for r := 0; r < reps; r++ {
		root := rec.begin("probes serve", -1, probeOp)
		replay := func(name string, gzip bool) (seconds float64, size int, err error) {
			sp := rec.begin(name, root, probeOp)
			for _, p := range posts {
				n, serr := b.serve(ctx, p, gzip)
				if serr != nil {
					err = serr
				}
				size += n
			}
			return rec.end(sp).Seconds(), size, err
		}
		t, plain, err := replay("server.ServeHTTP frags identity", false)
		if err != nil {
			return nil, err
		}
		handler = append(handler, t)
		t, gz, err := replay("server.ServeHTTP frags gzip", true)
		if err != nil {
			return nil, err
		}
		handlerGz = append(handlerGz, t)
		out["server.gzip_ratio"] = float64(gz) / float64(plain)

		sp := rec.begin("net/http POST frags", root, probeOp)
		for _, p := range posts {
			if err := b.fetch(ctx, http.MethodPost, b.urls[p.node]+p.path, p.body); err != nil {
				return nil, err
			}
		}
		overHTTP = append(overHTTP, rec.end(sp).Seconds())

		sp = rec.begin("net/http GET index + meta", root, probeOp)
		for _, what := range []string{"/index", "/meta"} {
			if err := b.fetch(ctx, http.MethodGet, b.urls[0]+"/v1/d/"+b.dataset+what, nil); err != nil {
				return nil, err
			}
		}
		index = append(index, rec.end(sp).Seconds())

		// The warm path: a second session on an Archive opened with the
		// default fragment cache finds everything the first one fetched.
		arch, err := b.openWith(ctx, b.hc)
		if err != nil {
			return nil, err
		}
		if _, _, err := b.climb(ctx, arch, nil, -1, probeOp, nil); err != nil {
			return nil, err
		}
		cold := arch.RemoteStats()
		sp = rec.begin("ladder on a warm client cache", root, probeOp)
		res, _, err := b.climb(ctx, arch, nil, -1, probeOp, nil)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		after := arch.RemoteStats()
		arch.Close()
		warm = append(warm, res.latency.Seconds())
		hits := after.CacheHits - cold.CacheHits
		lookups := hits + (after.FragmentsFetched - cold.FragmentsFetched) + (after.Coalesced - cold.Coalesced)
		out["client.cache_hit_ratio"] = float64(hits) / float64(lookups)
		rec.end(root)
	}
	out["server.frags_handler_s"] = medianF(handler)
	out["server.frags_handler_gzip_s"] = medianF(handlerGz)
	out["server.frags_http_s"] = medianF(overHTTP)
	out["server.index_s"] = medianF(index)
	out["client.warm_ladder_s"] = medianF(warm)
	return out, nil
}
