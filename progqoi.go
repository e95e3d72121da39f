// Package progqoi is an error-controlled progressive retrieval library for
// scientific data with guaranteed error bounds on derivable quantities of
// interest (QoIs), reproducing the SC'24 paper "Error-controlled
// Progressive Retrieval of Scientific Data under Derivable Quantities of
// Interest".
//
// A producer refactors each field once into progressive fragments:
//
//	archive, err := progqoi.Refactor(
//	    []string{"Vx", "Vy", "Vz"}, fields, []int{512, 512},
//	    progqoi.WithMethod(progqoi.PMGARDHB))
//
// A consumer then opens a retrieval session and asks for QoIs under error
// tolerances; the session fetches only the fragments needed to *certify*
// those tolerances from the reconstruction alone — no ground truth
// required — and reuses every byte across successive requests. A request
// is a set of [Target]s, each pairing one QoI with its own tolerance
// (absolute or relative) and optional region of interest:
//
//	sess, err := archive.Open()
//	vtot, err := progqoi.ParseQoI("VTOT", "sqrt(Vx^2+Vy^2+Vz^2)", archive.FieldNames())
//	res, err := sess.Do(ctx, progqoi.Request{Targets: []progqoi.Target{
//	    {QoI: vtot, Tolerance: 1e-4},
//	}})
//	// res.Data, res.EstErrors, res.RetrievedBytes
//
// The context cancels or deadlines the retrieval end to end, including
// in-flight HTTP fetches of a remote session; Request.OnProgress streams
// one report per certify-loop iteration. See [Session.Do] for both.
//
// QoIs are derivable when composable from the paper's basis: polynomials,
// square root, the radical 1/(x+c), addition, multiplication, division and
// composition — enough for total velocity, temperature, Mach number, total
// pressure, viscosity, molar-concentration products, and far more.
//
// # Remote retrieval
//
// The paper's headline scenario keeps the refactored fragments at a
// storage site and pulls only the bytes each tolerance needs. [Open]
// resolves any archive reference — the last path segment is always the
// dataset:
//
//	archive, err := progqoi.Open(ctx, "/data/archives/ge")          // local directory
//	archive, err = progqoi.Open(ctx, "http://storage-site:9123/ge") // progqoid fragment service
//	archive, err = progqoi.Open(ctx, "s3://bucket/archives/ge",     // object store, ranged reads
//	    progqoi.WithS3Endpoint("http://minio:9000"))
//	sess, err := archive.Open()
//	res, err := sess.Do(ctx, progqoi.Request{Targets: []progqoi.Target{
//	    {QoI: vtot, Tolerance: 1e-4},
//	}})
//
// A remote session certifies the same error bounds and reconstructs the
// same bytes as a local one; fragment fetches are batched into one HTTP
// round trip per retrieval iteration, cached in a byte-bounded LRU shared
// by all sessions of the archive, and coalesced across concurrent
// sessions. Archive.RemoteStats reports actual wire bytes next to each
// session's logical RetrievedBytes. An s3:// archive skips the daemon
// entirely: sessions fetch exactly the fragment byte ranges they need
// with authenticated ranged GETs, every read pinned to the object's ETag
// (Archive.StoreStats reports the cold fetches that reached the bucket).
//
// The producer side scales too: Refactor parallelizes across variables
// and bit planes under [WithRefactorWorkers] with bit-identical output,
// `progqoi pack` streams one variable at a time (crash-safe: the archive
// manifest commits last), and a running progqoid publishes newly packed
// datasets with zero downtime via its admin reload route. ARCHITECTURE.md
// and FORMATS.md at the repository root document the layers and every
// at-rest/wire format.
//
// Several progqoid nodes serving the same archive form a cluster: pass
// the extra base URLs with [WithEndpoints] (or let [WithPeerDiscovery]
// find them), and fragment fetches shard across the nodes by rendezvous
// hashing with transparent replica failover — a node dying mid-retrieval
// changes nothing about the result.
//
// # Concurrency
//
// A Session is a stateful incremental cursor: use each Session from one
// goroutine at a time. Everything above a Session is concurrency-safe —
// any number of goroutines may Open sessions of the same Archive (local or
// remote) and drive them in parallel; remote sessions share the archive's
// fragment cache and coalesce duplicate in-flight fetches.
package progqoi

import (
	"context"
	"net/http"
	"time"

	"progqoi/internal/client"
	"progqoi/internal/core"
	"progqoi/internal/obs"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
	"progqoi/internal/storage"
)

// Method selects a progressive representation.
type Method = progressive.Method

// The available progressive representations (§V-B of the paper).
const (
	// PSZ3 stores independent error-bounded snapshots.
	PSZ3 = progressive.PSZ3
	// PSZ3Delta stores residual snapshots (no cross-request redundancy).
	PSZ3Delta = progressive.PSZ3Delta
	// PMGARD is the multilevel orthogonal-basis decomposition + bit planes.
	PMGARD = progressive.PMGARD
	// PMGARDHB is the paper's revised hierarchical-basis variant: tighter
	// L∞ estimates, faster refactoring (the recommended default).
	PMGARDHB = progressive.PMGARDHB
)

// QoI is a named derivable quantity of interest.
type QoI = qoi.QoI

// Expr is a derivable QoI expression tree; see ParseQoI and the builders.
// It is sealed: code outside this module cannot implement it with a type
// of its own, and ParseQoI and the built-in QoIs cover every expression
// the paper uses. A type that embeds an Expr is the expression it embeds.
type Expr = qoi.Expr

// Result reports one retrieval: reconstructed data, certified per-QoI error
// estimates, and cumulative retrieved bytes.
type Result = core.Result

// Iteration is one certify-loop progress report streamed to
// Request.OnProgress: iteration number, per-QoI estimated errors, and
// cumulative retrieved/wire bytes.
type Iteration = core.Iteration

// ErrExhausted is returned (with a best-effort Result) when full fidelity
// is reached before the requested tolerances can be certified.
var ErrExhausted = core.ErrExhausted

// ErrBadRequest is the sentinel wrapped by every argument-validation
// failure of Session.Do: empty requests, non-positive tolerances,
// relative targets without a range, malformed regions, QoIs without an
// expression or referencing unknown variables. Test with
// errors.Is(err, ErrBadRequest).
var ErrBadRequest = core.ErrBadRequest

// ParseQoI compiles a formula over the named fields into a QoI, e.g.
// ParseQoI("T", "P/(287.1*D)", []string{"Vx","Vy","Vz","P","D"}).
// Half-integer exponents (x^3.5) lower automatically to sqrt(x^7).
func ParseQoI(name, formula string, fields []string) (QoI, error) {
	e, err := qoi.Parse(formula, fields)
	if err != nil {
		return QoI{}, err
	}
	return QoI{Name: name, Expr: e}, nil
}

// TotalVelocity returns the √(Vx²+Vy²+Vz²) QoI over three field indices.
func TotalVelocity(vx, vy, vz int) QoI { return qoi.TotalVelocity(vx, vy, vz) }

// GEQoIs returns the paper's six GE CFD QoIs (Equations 1–6), defined over
// fields ordered Vx, Vy, Vz, P, D.
func GEQoIs() []QoI { return qoi.GEQoIs() }

// Option configures Refactor.
type Option func(*core.RefactorOptions)

// WithMethod selects the progressive representation (default PMGARDHB).
func WithMethod(m Method) Option {
	return func(o *core.RefactorOptions) { o.Progressive.Method = m }
}

// WithZeroMask enables the outlier mask for exact-zero points, keeping
// square-root QoI estimates finite at wall nodes (default on).
func WithZeroMask(on bool) Option { return func(o *core.RefactorOptions) { o.MaskZeros = on } }

// WithSnapshotBounds sets the preset absolute bounds for snapshot methods
// (default: 16 decades from 1/10 of the field range).
func WithSnapshotBounds(ebs []float64) Option {
	return func(o *core.RefactorOptions) { o.Progressive.SnapshotEBs = append([]float64(nil), ebs...) }
}

// WithLosslessTail appends a bit-exact final fragment to snapshot methods
// so any tolerance is reachable (default on).
func WithLosslessTail(on bool) Option {
	return func(o *core.RefactorOptions) { o.Progressive.LosslessTail = on }
}

// WithRefactorWorkers bounds Refactor's encode pool, the producer-side
// mirror of WithWorkers: variables refactor concurrently and the
// per-bitplane encode stages within each variable share the same budget.
// n = 1 selects the fully sequential path; the default (0) is GOMAXPROCS.
// Parallel refactoring is deterministic — the archive is bit-identical to
// the sequential path for every setting.
func WithRefactorWorkers(n int) Option { return func(o *core.RefactorOptions) { o.Workers = n } }

// Archive is a set of refactored variables sharing one grid. A local
// Archive comes from Refactor or a file:// reference; Open's http(s) and
// s3 schemes return archives whose sessions fetch fragment payloads over
// the wire as they need them.
type Archive struct {
	vars   []*core.Variable // meta-only when fetch is set
	dims   []int
	stored int64 // fragment bytes at rest

	// fetch and wire are the transport of an http(s) or s3 archive, nil
	// for a resident one: fetch brings a session the payloads its plan
	// needs, and wire counts the bytes it moved for every session.
	fetch core.LazyFetch
	wire  func() int64
	// client serves RemoteStats and Close on an http(s) archive, store
	// serves StoreStats on an s3 one.
	client *client.Client
	store  storage.Store
}

// RemoteOption configures Open, in the same functional-options idiom
// Refactor and Archive.Open use. With no options the remote client's
// defaults apply: 30 s response-header timeout, 3 retries with exponential
// backoff, 64 MiB fragment cache.
type RemoteOption func(*remoteOptions)

type remoteOptions struct {
	cacheBytes  int64
	maxRetries  int
	httpClient  *http.Client
	endpoints   []string
	replication int
	discover    bool
	token       string

	topologyRefresh time.Duration
	s3Endpoint      string
	s3Access        string
	s3Secret        string
	s3Region        string
}

// WithCache bounds the fragment LRU cache shared by all sessions of the
// archive (default 64 MiB; negative disables caching).
func WithCache(bytes int64) RemoteOption {
	return func(o *remoteOptions) { o.cacheBytes = bytes }
}

// WithRetries sets how many times failed requests are re-attempted
// (default 3; negative disables retries).
func WithRetries(n int) RemoteOption {
	return func(o *remoteOptions) { o.maxRetries = n }
}

// WithHTTPClient overrides the HTTP transport.
func WithHTTPClient(hc *http.Client) RemoteOption {
	return func(o *remoteOptions) { o.httpClient = hc }
}

// WithEndpoints adds further cluster nodes serving the same archive as
// the primary base URL. Fragment fetches shard across all endpoints by
// rendezvous hashing over (variable, fragment id) — so each node's hot
// cache sees a stable slice of the key space — and each batched fetch
// splits into concurrent per-shard sub-batches. A node that refuses
// connections or answers 5xx is failed over transparently: retrieval
// results stay bit-identical, and RemoteStats.Failovers counts the
// rerouted fetches.
func WithEndpoints(urls ...string) RemoteOption {
	return func(o *remoteOptions) { o.endpoints = append(o.endpoints, urls...) }
}

// WithReplication sets the replica-set size per shard: how many
// rendezvous-preferred endpoints a fragment fetch tries before spilling
// to the rest of the cluster (default 2, clamped to the endpoint count).
func WithReplication(n int) RemoteOption {
	return func(o *remoteOptions) { o.replication = n }
}

// WithPeerDiscovery asks Open to fetch the seed node's static
// topology (/v1/cluster, populated by progqoid -peers) and fold the
// advertised peers into the endpoint set — point a client at one node of
// a static cluster and it finds the rest. Best-effort: a node without
// the route behaves as a solo node.
func WithPeerDiscovery() RemoteOption {
	return func(o *remoteOptions) { o.discover = true }
}

// WithS3Endpoint sets the object-store base URL for s3:// references
// opened with Open (overrides the PROGQOI_S3_ENDPOINT environment
// variable). Ignored for other schemes.
func WithS3Endpoint(endpoint string) RemoteOption {
	return func(o *remoteOptions) { o.s3Endpoint = endpoint }
}

// WithS3Credentials sets the SigV4 signing credentials for s3://
// references opened with Open (overrides PROGQOI_S3_ACCESS_KEY and
// PROGQOI_S3_SECRET_KEY). Both empty sends unsigned requests. Ignored
// for other schemes.
func WithS3Credentials(accessKey, secretKey string) RemoteOption {
	return func(o *remoteOptions) { o.s3Access, o.s3Secret = accessKey, secretKey }
}

// WithS3Region sets the SigV4 signing region for s3:// references opened
// with Open (overrides PROGQOI_S3_REGION; default "us-east-1"). Ignored
// for other schemes.
func WithS3Region(region string) RemoteOption {
	return func(o *remoteOptions) { o.s3Region = region }
}

// WithToken attaches a tenant bearer token to every request against a
// progqoid service started with -tenants. The token selects the tenant's
// QoS envelope (rate limit, in-flight cap, priority class); requests over
// the rate limit are throttled with 429 + Retry-After, which the client
// honors transparently — across replicas, a retrieval slows down rather
// than fails, and final results stay bit-identical. Missing or unknown
// tokens fail immediately with an error matching ErrUnauthorized.
// Ignored by servers without tenants and by non-http(s) schemes.
func WithToken(token string) RemoteOption {
	return func(o *remoteOptions) { o.token = token }
}

// Sentinel errors surfaced by sessions against a multi-tenant service,
// matched with errors.Is: ErrUnauthorized (401 — missing or unknown
// token), ErrForbidden (403), and ErrRateLimited (a 429 that survived
// the whole retry budget on every replica).
var (
	ErrUnauthorized = client.ErrUnauthorized
	ErrForbidden    = client.ErrForbidden
	ErrRateLimited  = client.ErrRateLimited
)

// WithTopologyRefresh makes the archive follow an elastic progqoid
// cluster: every interval the client re-fetches /v1/cluster and swaps in
// the live membership as a new routing view, so nodes that join start
// taking their rendezvous share of fragment fetches mid-session and
// nodes that drain or die stop receiving new requests. A fully failed
// retry pass also forces an immediate refresh, so a rolling restart is
// picked up within one backoff rather than one interval. Combine with
// WithPeerDiscovery to bootstrap from a single seed URL. Zero (the
// default) keeps the classic static topology. Call Archive.Close to stop
// the background refresher.
func WithTopologyRefresh(interval time.Duration) RemoteOption {
	return func(o *remoteOptions) { o.topologyRefresh = interval }
}

// RemoteStats snapshots a remote archive's wire accounting: fragment
// payload bytes fetched over HTTP (the same unit as RetrievedBytes:
// fragments cross the wire as stored), cache hits (free), and coalesced
// fetches shared between concurrent sessions. Compare WireBytes with a
// session's RetrievedBytes to see what the cache saved.
type RemoteStats = client.Stats

// Remote reports whether the archive retrieves from a progqoid fragment
// service (see StoreBacked for archives reading an object store directly).
func (a *Archive) Remote() bool { return a.client != nil }

// RemoteStats returns the wire accounting of a remote archive (zero for
// local archives).
func (a *Archive) RemoteStats() RemoteStats {
	if a.client == nil {
		return RemoteStats{}
	}
	return a.client.Stats()
}

// Close stops the topology refresher WithTopologyRefresh started and
// drops the idle connections of the transport Open built. Idempotent; a
// no-op for local and store-backed archives, and sessions already open
// keep working afterwards (the routing view just stops following the
// cluster).
func (a *Archive) Close() {
	if a.client != nil {
		a.client.Close()
	}
}

// Refactor transforms fields (row-major on dims, one slice per field) into
// a progressive archive.
func Refactor(names []string, fields [][]float64, dims []int, opts ...Option) (*Archive, error) {
	o := core.RefactorOptions{
		Progressive: progressive.Options{Method: PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	}
	for _, fn := range opts {
		fn(&o)
	}
	vars, err := core.RefactorVariables(names, fields, dims, o)
	if err != nil {
		return nil, err
	}
	return &Archive{vars: vars, dims: append([]int(nil), dims...), stored: totalBytes(vars)}, nil
}

// FieldNames returns the archive's field names in variable order.
func (a *Archive) FieldNames() []string {
	names := make([]string, len(a.vars))
	for i, v := range a.vars {
		names[i] = v.Name
	}
	return names
}

// Dims returns the grid shape.
func (a *Archive) Dims() []int { return append([]int(nil), a.dims...) }

// StoredBytes returns the total fragment bytes across all variables (for
// remote and store-backed archives: the bytes held at the storage site,
// not yet fetched).
func (a *Archive) StoredBytes() int64 { return a.stored }

// Variables exposes the underlying refactored variables (advanced use:
// custom retrievers, storage layers, transfer simulation). Remote archives
// hold no local variables and return nil.
func (a *Archive) Variables() []*core.Variable {
	if a.fetch != nil {
		return nil
	}
	return a.vars
}

// FetchObserver sees every fragment fetch (index within its variable,
// size in bytes); use it for byte accounting or transfer simulation.
type FetchObserver = progressive.FetchFunc

// OpenOption configures Archive.Open, in the same functional-options idiom
// Refactor and Open use.
type OpenOption func(*openOptions)

type openOptions struct {
	fetch FetchObserver
	cfg   core.Config // Workers and Trace; the rest is the paper's loop
}

// WithFetchObserver registers a callback that sees every fragment fetch
// (index, size) the session performs — byte accounting, transfer
// simulation (netsim.Recorder), progress meters.
func WithFetchObserver(fetch FetchObserver) OpenOption {
	return func(o *openOptions) { o.fetch = fetch }
}

// WithWorkers bounds the session's retrieval compute pool: fragment decode
// inside each reader, the concurrent per-variable advance, and per-target
// error estimation all share the bound. n = 1 selects the fully sequential
// path; the default (0) is GOMAXPROCS. Parallel retrieval is
// deterministic — the reconstruction and every certified estimate are
// bit-identical to the sequential path.
func WithWorkers(n int) OpenOption {
	return func(o *openOptions) { o.cfg.Workers = n }
}

// Trace collects timed spans from a retrieval session: the plan, fetch,
// decode, commit, and estimate phases of every iteration, plus (for remote
// archives) each wire request with its byte count. A Trace is safe for
// concurrent use and may be shared across sessions; render one with
// WriteChromeTrace for chrome://tracing / Perfetto, or walk Spans directly.
type Trace = obs.Trace

// NewTrace returns an empty trace recorder with a fresh request ID.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace records the session's retrieval phases into tr. On a remote
// archive the trace's ID also travels as the X-Request-Id header of every
// wire request, so server access logs can be joined with client spans.
// A nil tr is ignored; sessions opened without WithTrace pay no tracing
// overhead (zero extra allocations on the retrieval path).
func WithTrace(tr *Trace) OpenOption {
	return func(o *openOptions) { o.cfg.Trace = tr }
}

// Session is an incremental QoI-preserving retrieval session: a stateful
// cursor over the archive whose fragments, once fetched by any Do call,
// are reused by every later call. Use a Session from one goroutine at a
// time; open one Session per goroutine for parallel retrieval (the archive
// and, for remote archives, the shared fragment cache are
// concurrency-safe).
type Session struct {
	rt *core.Retriever
}

// Open starts a retrieval session over the archive. On a remote archive
// the session fetches the fragments each retrieval iteration plans, on
// its own WithWorkers budget: from a progqoid service in one batched
// request per cluster node, sharing the archive's fragment cache and
// coalescing duplicate fetches with concurrent sessions; from an object
// store in one ranged read per run of consecutive fragments.
func (a *Archive) Open(opts ...OpenOption) (*Session, error) {
	var o openOptions
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	var (
		rt  *core.Retriever
		err error
	)
	if a.fetch != nil {
		rt, err = core.NewLazyRetriever(a.vars, o.cfg, o.fetch, a.fetch, a.wire)
	} else {
		rt, err = core.NewRetriever(a.vars, o.cfg, o.fetch)
	}
	if err != nil {
		return nil, err
	}
	return &Session{rt: rt}, nil
}

// Region is a half-open flat-index range of the data space used for
// region-of-interest retrieval; the zero Region means the whole domain.
type Region = core.Region

// Target is one quantity of interest with its own error requirement: an
// absolute tolerance, or a tolerance relative to the QoI's value range,
// certified over the whole domain or just a Region.
type Target = core.Target

// Request asks one Do call to certify a set of Targets. Its OnProgress,
// when set, fires after every certify-loop iteration; see [Session.Do].
type Request = core.Request

// Do fetches just enough fragments to certify every target, returning the
// reconstruction and the certified error estimates (EstErrors[k] belongs
// to Targets[k]). Fragments fetched by one Do call are reused by every
// later call on the same Session.
//
// ctx scopes the retrieval end to end: cancellation or deadline expiry is
// honored between loop iterations, between fragment ingests, and on
// in-flight HTTP requests of a remote session. On cancellation Do returns
// the best-effort Result accumulated so far together with an error
// wrapping ctx.Err(); the Session stays valid, and a follow-up Do resumes
// without re-fetching any fragment already held. A nil ctx means
// context.Background().
//
// When the targets cannot be certified even at full fidelity, Do returns
// the best-effort Result together with ErrExhausted. Invalid requests
// return an error wrapping ErrBadRequest.
func (s *Session) Do(ctx context.Context, req Request) (*Result, error) {
	return s.rt.Retrieve(ctx, req)
}

// RetrievedBytes returns the session's cumulative fetched bytes.
func (s *Session) RetrievedBytes() int64 { return s.rt.RetrievedBytes() }

// ActualQoIErrors computes ground-truth QoI errors between original and
// reconstructed fields — evaluation only; the retrieval loop never sees it.
func ActualQoIErrors(qois []QoI, orig, recon [][]float64) []float64 {
	return core.ActualQoIErrors(qois, orig, recon)
}

// QoIRanges computes per-QoI value ranges on original data, for converting
// between absolute and relative tolerances.
func QoIRanges(qois []QoI, orig [][]float64) []float64 {
	return core.QoIRanges(qois, orig)
}
