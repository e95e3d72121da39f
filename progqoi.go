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
	"fmt"
	"net/http"
	"time"

	"progqoi/internal/client"
	"progqoi/internal/core"
	"progqoi/internal/obs"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
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
type Option func(*options)

type options struct {
	method    Method
	maskZeros bool
	planes    int
	snapshots []float64
	tail      bool
	workers   int
}

// WithMethod selects the progressive representation (default PMGARDHB).
func WithMethod(m Method) Option { return func(o *options) { o.method = m } }

// WithZeroMask enables the outlier mask for exact-zero points, keeping
// square-root QoI estimates finite at wall nodes (default on).
func WithZeroMask(on bool) Option { return func(o *options) { o.maskZeros = on } }

// WithPlanes sets the bit-plane count for PMGARD methods (default 60).
func WithPlanes(n int) Option { return func(o *options) { o.planes = n } }

// WithSnapshotBounds sets the preset absolute bounds for snapshot methods
// (default: 16 decades from 1/10 of the field range).
func WithSnapshotBounds(ebs []float64) Option {
	return func(o *options) { o.snapshots = append([]float64(nil), ebs...) }
}

// WithLosslessTail appends a bit-exact final fragment to snapshot methods
// so any tolerance is reachable (default on).
func WithLosslessTail(on bool) Option { return func(o *options) { o.tail = on } }

// WithRefactorWorkers bounds Refactor's encode pool, the producer-side
// mirror of WithWorkers: variables refactor concurrently and the
// per-bitplane encode stages within each variable share the same budget.
// n = 1 selects the fully sequential path; the default (0) is GOMAXPROCS.
// Parallel refactoring is deterministic — the archive is bit-identical to
// the sequential path for every setting.
func WithRefactorWorkers(n int) Option { return func(o *options) { o.workers = n } }

// Archive is a set of refactored variables sharing one grid. A local
// Archive comes from Refactor or a file:// reference; Open's http(s) and
// s3 schemes return archives whose sessions fetch fragment payloads over
// the wire as they need them.
type Archive struct {
	vars   []*core.Variable
	names  []string
	dims   []int
	fields int
	remote *client.Remote
	store  *storeArchive
}

// RemoteOption configures Open, in the same functional-options idiom
// Refactor and Archive.Open use. With no options the remote client's
// defaults apply: 30 s response-header timeout, 3 retries with exponential
// backoff, 64 MiB fragment cache.
type RemoteOption func(*remoteOptions)

type remoteOptions struct {
	cacheBytes  int64
	maxRetries  int
	readAhead   int
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

// WithReadAhead pipelines the wire with the decoder: after each batched
// fragment fetch, up to n further fragments per variable — the ones a
// tightening iteration would request next — are fetched in the background
// into the shared cache while the session's worker pool decodes the batch
// it already has (default 0 = off). Speculative fragments count toward
// RemoteStats.WireBytes even when a retrieval certifies before needing
// them, so the wire total can exceed a session's RetrievedBytes.
func WithReadAhead(n int) RemoteOption {
	return func(o *remoteOptions) { o.readAhead = n }
}

// RemoteStats snapshots a remote archive's wire accounting: fragment
// payload bytes fetched over HTTP (the same unit as RetrievedBytes:
// fragments cross the wire as stored), cache hits (free), and coalesced
// fetches shared between concurrent sessions. Compare WireBytes with a
// session's RetrievedBytes to see what the cache saved.
type RemoteStats = client.Stats

// Remote reports whether the archive retrieves from a progqoid fragment
// service (see StoreBacked for archives reading an object store directly).
func (a *Archive) Remote() bool { return a.remote != nil }

// RemoteStats returns the wire accounting of a remote archive (zero for
// local archives).
func (a *Archive) RemoteStats() RemoteStats {
	if a.remote == nil {
		return RemoteStats{}
	}
	return a.remote.Client().Stats()
}

// WaitReadAhead blocks until every background read-ahead fetch launched by
// WithReadAhead sessions has finished — for orderly shutdown or stable
// stats snapshots; retrieval itself never waits on speculation. No-op for
// local archives.
func (a *Archive) WaitReadAhead() {
	if a.remote != nil {
		a.remote.WaitReadAhead()
	}
}

// Close releases the archive's background machinery: it waits for
// in-flight read-ahead fetches and stops the topology refresher started
// by WithTopologyRefresh. Idempotent; a no-op for local and store-backed
// archives, and sessions already open keep working afterwards (the
// routing view just stops following the cluster).
func (a *Archive) Close() {
	if a.remote != nil {
		a.remote.Close()
	}
}

// Refactor transforms fields (row-major on dims, one slice per field) into
// a progressive archive.
func Refactor(names []string, fields [][]float64, dims []int, opts ...Option) (*Archive, error) {
	o := options{method: PMGARDHB, maskZeros: true, tail: true}
	for _, fn := range opts {
		fn(&o)
	}
	vars, err := core.RefactorVariables(names, fields, dims, core.RefactorOptions{
		Progressive: progressive.Options{
			Method:       o.method,
			Planes:       o.planes,
			SnapshotEBs:  o.snapshots,
			LosslessTail: o.tail,
		},
		MaskZeros: o.maskZeros,
		Workers:   o.workers,
	})
	if err != nil {
		return nil, err
	}
	return &Archive{vars: vars, names: append([]string(nil), names...), dims: append([]int(nil), dims...), fields: len(fields)}, nil
}

// FieldNames returns the archive's field names in variable order.
func (a *Archive) FieldNames() []string { return append([]string(nil), a.names...) }

// Dims returns the grid shape.
func (a *Archive) Dims() []int { return append([]int(nil), a.dims...) }

// StoredBytes returns the total fragment bytes across all variables (for
// remote and store-backed archives: the bytes held at the storage site,
// not yet fetched).
func (a *Archive) StoredBytes() int64 {
	if a.remote != nil {
		return a.remote.StoredBytes()
	}
	if a.store != nil {
		return a.store.stored
	}
	var n int64
	for _, v := range a.vars {
		n += v.Ref.TotalBytes()
	}
	return n
}

// Variables exposes the underlying refactored variables (advanced use:
// custom retrievers, storage layers, transfer simulation). Remote archives
// hold no local variables and return nil.
func (a *Archive) Variables() []*core.Variable { return a.vars }

// FetchObserver sees every fragment fetch (index within its variable,
// size in bytes); use it for byte accounting or transfer simulation.
type FetchObserver = progressive.FetchFunc

// SessionConfig tunes the retrieval loop; the zero value uses the paper's
// settings (tightening factor c = 1.5, max-error-point optimization on).
type SessionConfig = core.Config

// OpenOption configures Archive.Open, in the same functional-options idiom
// Refactor and Open use.
type OpenOption func(*openOptions)

type openOptions struct {
	fetch FetchObserver
	cfg   SessionConfig
}

// WithFetchObserver registers a callback that sees every fragment fetch
// (index, size) the session performs — byte accounting, transfer
// simulation (netsim.Recorder), progress meters.
func WithFetchObserver(fetch FetchObserver) OpenOption {
	return func(o *openOptions) { o.fetch = fetch }
}

// WithSessionConfig overrides the retrieval-loop settings (tightening
// factor, iteration cap, worker count, estimator ablations).
func WithSessionConfig(cfg SessionConfig) OpenOption {
	return func(o *openOptions) { o.cfg = cfg }
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
// the session's fragment fetches cross the wire, batched into one request
// per retrieval iteration; concurrent sessions share the archive's
// fragment cache and coalesce duplicate fetches.
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
	switch {
	case a.remote != nil:
		rt, err = a.remote.NewSession(o.fetch, o.cfg)
	case a.store != nil:
		rt, err = a.store.newSession(o.fetch, o.cfg)
	default:
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
// certified over the whole domain or just a Region. A Request mixes
// targets freely — the same QoI may appear twice with different regions
// and tolerances to express spatially varying fidelity.
type Target struct {
	// QoI is the derivable quantity to certify.
	QoI QoI
	// Tolerance is the requested max error: absolute by default, or a
	// fraction of Range when Relative is set. Must be positive.
	Tolerance float64
	// Relative interprets Tolerance as Tolerance × Range (the paper's
	// evaluation convention) and seeds the error-bound assigner with the
	// relative value.
	Relative bool
	// Range is the QoI's value range (see QoIRanges); required when
	// Relative is set, ignored otherwise.
	Range float64
	// Region restricts certification to a flat-index range; the zero
	// Region means the whole domain.
	Region Region
}

// Request asks one Do call to certify a set of Targets.
type Request struct {
	Targets []Target
	// OnProgress, when set, fires after every certify-loop iteration with
	// the current per-QoI estimated errors and cumulative byte counts —
	// render convergence, or cancel the Do context from inside the
	// callback to stop early and keep the best-effort Result. It runs on
	// the retrieving goroutine.
	OnProgress func(Iteration)
}

// toCore validates the request and lowers it to the core representation.
// Every validation failure wraps ErrBadRequest.
func (r Request) toCore() (core.Request, error) {
	if len(r.Targets) == 0 {
		return core.Request{}, fmt.Errorf("%w: request has no targets", ErrBadRequest)
	}
	creq := core.Request{
		QoIs:       make([]qoi.QoI, len(r.Targets)),
		Tolerances: make([]float64, len(r.Targets)),
		OnProgress: r.OnProgress,
	}
	regions := false
	relative := false
	for k, t := range r.Targets {
		creq.QoIs[k] = t.QoI
		if !(t.Tolerance > 0) {
			return core.Request{}, fmt.Errorf("%w: target %d (%s): tolerance must be positive, got %g",
				ErrBadRequest, k, t.QoI.Name, t.Tolerance)
		}
		if t.Relative {
			if !(t.Range > 0) {
				return core.Request{}, fmt.Errorf("%w: target %d (%s): relative tolerance needs a positive Range, got %g",
					ErrBadRequest, k, t.QoI.Name, t.Range)
			}
			relative = true
			creq.Tolerances[k] = t.Tolerance * t.Range
		} else {
			creq.Tolerances[k] = t.Tolerance
		}
		if t.Region != (Region{}) {
			regions = true
		}
	}
	if relative {
		creq.InitRel = make([]float64, len(r.Targets))
		for k, t := range r.Targets {
			if t.Relative {
				creq.InitRel[k] = t.Tolerance
			}
		}
	}
	if regions {
		creq.Regions = make([]Region, len(r.Targets))
		for k, t := range r.Targets {
			creq.Regions[k] = t.Region
		}
	}
	return creq, nil
}

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
	creq, err := req.toCore()
	if err != nil {
		return nil, err
	}
	return s.rt.Retrieve(ctx, creq)
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
