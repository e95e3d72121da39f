// Command progqoid is the fragment service daemon: it serves the archives
// of a storage backend (written by storage.WriteArchive, e.g. via
// `progqoi pack`) over HTTP so remote sessions can retrieve QoIs with
// exactly the bytes each tolerance needs.
//
//	progqoid -store ./archives -addr :9123
//
// The store reference is scheme-dispatched: a directory path (or
// file://dir) serves local archive files, while an S3-compatible bucket
// makes the daemon a stateless serving tier — zero archive bytes on local
// disk, fragments fetched from the bucket with authenticated ranged GETs
// through a byte-bounded read-through cache:
//
//	export PROGQOI_S3_ACCESS_KEY=... PROGQOI_S3_SECRET_KEY=...
//	progqoid -store s3://bucket/prefix \
//	    -store-endpoint http://minio:9000 -addr :9123
//
// Credentials travel only through the PROGQOI_S3_* environment, never
// argv. A malformed store URL, missing bucket, denied access or
// unreachable endpoint fails startup with a clean diagnostic before the
// listener binds.
//
// A static cluster is several progqoid nodes serving the same store;
// each node is told the full topology so clients can discover it from
// any member:
//
//	progqoid -store ./archives -addr :9123 \
//	    -advertise http://node0:9123 \
//	    -peers http://node1:9123,http://node2:9123
//
// Sharding, replication and failover are client-side concerns (see
// progqoi.WithEndpoints); the daemon only reports the topology at
// /v1/cluster and serves its share of the traffic. -cache bounds the
// in-memory hot-fragment cache in front of the directory; /metrics
// exposes serving counters in Prometheus text format.
//
// An *elastic* cluster manages membership dynamically instead: a node
// boots with -join pointing at any live member (or -heartbeat alone to
// seed a new cluster) and announces itself, heartbeats carry the full
// membership table between nodes, silent members are marked suspect and
// eventually removed, and clients following the cluster with
// progqoi.WithTopologyRefresh re-route mid-session:
//
//	progqoid -store ./archives -addr :9124 \
//	    -advertise http://node1:9124 -join http://node0:9123
//
// POST /v1/cluster/drain (admin bearer token, like reload) retires a
// node gracefully: it stops accepting new sessions (503 on index/meta),
// finishes in-flight fragment work, and deregisters from its peers. On
// SIGINT/SIGTERM an elastic node leaves the cluster before the listener
// closes. See ARCHITECTURE.md "Elastic cluster".
//
// -admin TOKEN enables zero-downtime dataset publishing: pack a new
// dataset into the served directory (variable blobs land first, the
// manifest last, so a torn pack is invisible) and trigger
//
//	curl -X POST -H "Authorization: Bearer TOKEN" \
//	    http://node:9123/v1/datasets/reload
//
// to re-scan the directory and atomically swap the serving catalog;
// sessions already retrieving keep working throughout.
//
// -tenants CONFIG.json turns on multi-tenant serving: every data-plane
// request must carry a tenant bearer token, and each tenant gets its own
// rate limit, in-flight cap and priority class ("interactive" requests
// are admitted ahead of "bulk" whenever serving slots are contended).
// Over-limit requests get 429 + Retry-After; a full admission queue
// sheds with 503. Like the S3 credentials, tokens live in a file, never
// argv. -max-queue bounds the admission queue (waiting requests per
// serving slot). See ARCHITECTURE.md "Multi-tenant serving & QoS".
//
// Routes, formats and caching behaviour are documented in
// progqoi/internal/server and in FORMATS.md at the repository root. Stop
// with SIGINT/SIGTERM; in-flight requests drain before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"progqoi/internal/server"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "progqoid:", err)
		os.Exit(1)
	}
}

// parsePeers validates a comma-separated list of absolute http(s) base
// URLs; empty elements are rejected so a stray comma fails loudly, and so
// is a query, fragment or userinfo part, which would swallow the route
// paths clients append to a base URL.
func parsePeers(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	var out []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("peer %q is not an absolute http(s) URL", p)
		}
		if strings.ContainsAny(p, "?#") || u.User != nil {
			return nil, fmt.Errorf("peer %q must be a plain base URL: no query, fragment or userinfo", p)
		}
		out = append(out, strings.TrimRight(p, "/"))
	}
	return out, nil
}

// newLogger builds the process logger from the -log-format and -log-level
// flags; records go to stderr so stdout stays free for tooling.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q (want text or json)", format)
	}
}

// resolveDaemonStore maps a -store reference onto a live storage.Store:
// s3://bucket[/prefix], file://dir, or a bare directory path. The
// object-store endpoint and region come from the flags when set, the
// PROGQOI_S3_* environment otherwise; credentials are environment-only —
// secrets on a command line leak through process listings. Malformed
// references fail with errors wrapping objstore.ErrBadStoreURL before any
// listener binds.
func resolveDaemonStore(ref, endpoint, region string) (storage.Store, error) {
	opt := objstore.EnvOptions()
	if endpoint != "" {
		opt.Endpoint = endpoint
	}
	if region != "" {
		opt.Region = region
	}
	return objstore.ResolveStore(ref, opt)
}

// newServer builds the HTTP handler for one archive store reference;
// split from run so tests can drive it without a listener.
func newServer(ctx context.Context, ref string, limit int, logRequests bool) (*server.Server, error) {
	return newClusterServer(ctx, ref, limit, 0, "", nil, "", logRequests, nil)
}

// newClusterServer resolves the store reference and builds the service —
// the catalog scan inside server.New is also the startup probe: an
// unreachable or denying object store surfaces here as a clean startup
// error instead of a half-alive daemon.
func newClusterServer(ctx context.Context, ref string, limit int, cacheBytes int64, advertise string, peers []string, adminToken string, logRequests bool, lg *slog.Logger) (*server.Server, error) {
	st, err := resolveDaemonStore(ref, "", "")
	if err != nil {
		return nil, err
	}
	return server.New(ctx, st, server.Options{
		MaxInflight:   limit,
		HotCacheBytes: cacheBytes,
		Advertise:     advertise,
		Peers:         peers,
		AdminToken:    adminToken,
		LogRequests:   logRequests,
		Log:           lg,
	})
}

// withPprof mounts net/http/pprof under /debug/pprof/ behind the admin
// bearer token; every other path falls through to next. Profiles expose
// heap contents and symbol names, so they get the same gate as hot
// publishing rather than a public route.
func withPprof(next http.Handler, token string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			next.ServeHTTP(w, r)
			return
		}
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || !server.TokenEqual(got, token) {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func run(args []string) error {
	fs := flag.NewFlagSet("progqoid", flag.ContinueOnError)
	addr := fs.String("addr", ":9123", "listen address")
	store := fs.String("store", "", "archive store to serve: s3://bucket[/prefix], file://dir, or a directory path")
	storeEndpoint := fs.String("store-endpoint", "", "object-store base URL for s3:// stores (overrides "+objstore.EnvEndpoint+"); credentials come from "+objstore.EnvAccessKey+"/"+objstore.EnvSecretKey)
	storeRegion := fs.String("store-region", "", "object-store signing region for s3:// stores (overrides "+objstore.EnvRegion+")")
	limit := fs.Int("limit", server.DefaultMaxInflight, "max concurrent requests")
	cache := fs.Int64("cache", server.DefaultHotCacheBytes, "hot-fragment cache bound in bytes (negative disables)")
	advertise := fs.String("advertise", "", "this node's public base URL, reported at /v1/cluster")
	peers := fs.String("peers", "", "comma-separated base URLs of the other cluster nodes, reported at /v1/cluster")
	join := fs.String("join", "", "comma-separated seed base URLs of an elastic cluster to join on boot (requires -advertise; enables heartbeating)")
	heartbeat := fs.Duration("heartbeat", 0, "membership heartbeat interval (0 with -join defaults to "+server.DefaultHeartbeatInterval.String()+"; >0 without -join starts a joinable seed node)")
	suspectAfter := fs.Duration("suspect-after", 0, "silence after which a member is marked suspect and unrouted (default "+fmt.Sprint(server.DefaultSuspectMultiple)+"x heartbeat)")
	removeAfter := fs.Duration("remove-after", 0, "silence after which a suspect member is removed from the cluster (default "+fmt.Sprint(server.DefaultRemoveMultiple)+"x heartbeat)")
	admin := fs.String("admin", "", "admin token enabling hot publish via POST /v1/datasets/reload (empty disables)")
	tenantsPath := fs.String("tenants", "", "JSON tenant config enabling multi-tenant auth + QoS (empty serves anonymously); see ARCHITECTURE.md")
	maxQueue := fs.Int("max-queue", 0, "admission queue bound in waiting requests per serving slot (0 = default "+fmt.Sprint(server.DefaultMaxQueue)+", negative disables queueing)")
	verbose := fs.Bool("v", false, "log every request")
	logFormat := fs.String("log-format", "text", "log record format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ behind the -admin bearer token")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h printed usage; that is success, not a startup failure.
			return nil
		}
		return err
	}
	storeRef := *store
	if storeRef == "" {
		return fmt.Errorf("-store is required (s3://bucket[/prefix], file://dir, or a directory path)")
	}
	lg, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *pprofOn && *admin == "" {
		return fmt.Errorf("-pprof requires -admin: profiling endpoints are bearer-gated")
	}
	peerURLs, err := parsePeers(*peers)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	if *advertise != "" {
		if _, err := parsePeers(*advertise); err != nil {
			return fmt.Errorf("-advertise: %w", err)
		}
	}
	seedURLs, err := parsePeers(*join)
	if err != nil {
		return fmt.Errorf("-join: %w", err)
	}
	elastic := *join != "" || *heartbeat > 0
	if *join != "" && *advertise == "" {
		return fmt.Errorf("-join requires -advertise: peers must know this node's public base URL")
	}
	if elastic && *advertise == "" {
		return fmt.Errorf("-heartbeat requires -advertise: membership announces this node's public base URL")
	}
	if (*suspectAfter != 0 || *removeAfter != 0) && !elastic {
		return fmt.Errorf("-suspect-after/-remove-after need elastic membership (-join or -heartbeat)")
	}
	if *suspectAfter < 0 || *removeAfter < 0 || *heartbeat < 0 {
		return fmt.Errorf("membership intervals must be positive")
	}
	var tenants []server.Tenant
	if *tenantsPath != "" {
		if tenants, err = server.LoadTenants(*tenantsPath); err != nil {
			return fmt.Errorf("-tenants: %w", err)
		}
	}
	st, err := resolveDaemonStore(storeRef, *storeEndpoint, *storeRegion)
	if err != nil {
		return err
	}
	opts := server.Options{
		MaxInflight:   *limit,
		MaxQueue:      *maxQueue,
		HotCacheBytes: *cache,
		Advertise:     *advertise,
		Peers:         peerURLs,
		AdminToken:    *admin,
		Tenants:       tenants,
		LogRequests:   *verbose,
		Log:           lg,
	}
	if elastic {
		opts.HeartbeatInterval = *heartbeat
		opts.SuspectAfter = *suspectAfter
		opts.RemoveAfter = *removeAfter
		// Wall-clock generations order restarts: a node that comes back on
		// the same address always announces a generation newer than the
		// incarnation its peers remember.
		opts.Generation = time.Now().UnixNano()
	}
	srv, err := server.New(context.Background(), st, opts)
	if err != nil {
		return fmt.Errorf("store %s: %w", storeRef, err)
	}
	names := srv.Datasets()
	if len(names) == 0 {
		lg.Warn("no datasets (no *.manifest keys)", slog.String("store", storeRef))
	}
	lg.Info("serving",
		slog.Int("datasets", len(names)),
		slog.Any("names", names),
		slog.String("store", storeRef),
		slog.String("addr", *addr),
		slog.Int("limit", *limit),
		slog.Int("peers", len(peerURLs)),
		slog.Bool("hot_publish", *admin != ""),
		slog.Int("tenants", len(tenants)),
		slog.Bool("elastic", elastic),
		slog.Bool("pprof", *pprofOn))

	handler := http.Handler(srv)
	if *pprofOn {
		handler = withPprof(srv, *admin)
	}
	// ReadHeaderTimeout keeps a slow-loris peer from pinning a connection
	// forever; fragment bodies themselves are never read by the server.
	hs := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if elastic {
		// Announce after the listener goroutine is up so a seed's
		// anti-entropy probe of this node can already be answered.
		if err := srv.StartMembership(context.Background(), *advertise, seedURLs); err != nil {
			return fmt.Errorf("-join: %w", err)
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		lg.Info("draining", slog.String("signal", s.String()))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if elastic {
			// Deregister before the listener closes: peers drop this node
			// from their membership (and clients from their views) instead
			// of waiting out the suspicion window.
			srv.Drain()
			srv.LeaveCluster(ctx)
			srv.StopMembership()
		}
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	return nil
}
