package progqoi

import (
	"context"
	"fmt"
	"net/url"
	"strings"
	"sync/atomic"

	"progqoi/internal/client"
	"progqoi/internal/core"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
)

// open.go is the unified entry point of the v3 API: one Open call that
// resolves any supported archive reference, so callers name *where the
// data lives* and stop choosing constructors:
//
//	file:///data/archives/ge    local archive directory + dataset
//	/data/archives/ge           same, bare path
//	http://storage-site:9123/ge progqoid fragment service (cluster-capable)
//	s3://bucket/prefix/ge       object-store bucket, ranged fragment reads
//
// The last path segment is always the dataset name; everything before it
// locates the store.

// ErrBadRef reports an Open reference that cannot be resolved: an
// unsupported scheme, a missing dataset segment, or an s3 reference
// without a configured endpoint. It is the same sentinel progqoid's
// -store validation uses, so errors.Is works across both layers.
var ErrBadRef = objstore.ErrBadStoreURL

// StoreFetchStats snapshots an object-store archive's cold-fetch
// accounting: how many reads actually reached the bucket, their payload
// bytes, and the wall time they spent on the wire. Reads served by the
// store's byte-bounded cache appear nowhere here — compare ColdFetchBytes
// with a session's RetrievedBytes to see what the cache saved.
type StoreFetchStats = storage.FetchStats

// Open resolves an archive reference and opens it, dispatching on scheme:
//
//   - "s3://bucket[/prefix]/dataset" opens the dataset directly from an
//     S3-compatible object store: retrieval metadata is read once up
//     front, and sessions then fetch exactly the fragment byte ranges
//     each tolerance needs with authenticated ranged GETs. The endpoint
//     and credentials come from WithS3Endpoint / WithS3Credentials or the
//     PROGQOI_S3_* environment variables; every read is ETag-pinned, so
//     a bucket republished mid-session surfaces as an error, never as
//     stale bytes.
//
//   - "http://…" / "https://…" opens a dataset served by a progqoid
//     fragment service: the base URL is the reference minus its last
//     path segment. All cluster options (WithEndpoints, WithReplication,
//     WithPeerDiscovery, WithReadAhead) apply.
//
//   - "file:///dir/dataset", "file://dir/dataset" and bare paths open a
//     local archive directory; fragments are resident in memory like an
//     archive returned by Refactor.
//
// ctx scopes the metadata reads; sessions opened later carry their own
// per-Do contexts. Unresolvable references fail with errors wrapping
// ErrBadRef.
func Open(ctx context.Context, ref string, opts ...RemoteOption) (*Archive, error) {
	var ro remoteOptions
	for _, fn := range opts {
		if fn != nil {
			fn(&ro)
		}
	}
	switch {
	case strings.HasPrefix(ref, "http://"), strings.HasPrefix(ref, "https://"):
		base, dataset, err := splitHTTPRef(ref)
		if err != nil {
			return nil, err
		}
		return openRemoteArchive(ctx, base, dataset, ro)
	case strings.HasPrefix(ref, "s3://"):
		st, dataset, err := openObjStore(ref, ro)
		if err != nil {
			return nil, err
		}
		return openStoreArchive(ctx, st, dataset)
	case strings.HasPrefix(ref, "file://"):
		return openDirArchive(ctx, strings.TrimPrefix(ref, "file://"))
	case strings.Contains(ref, "://"):
		return nil, fmt.Errorf("%w: %q: unsupported scheme (want s3://, http(s)://, file:// or a bare path)", ErrBadRef, ref)
	case ref == "":
		return nil, fmt.Errorf("%w: empty reference", ErrBadRef)
	default:
		return openDirArchive(ctx, ref)
	}
}

// splitHTTPRef splits an http(s) reference into the service base URL and
// the dataset (its last path segment).
func splitHTTPRef(ref string) (base, dataset string, err error) {
	u, err := url.Parse(ref)
	if err != nil {
		return "", "", fmt.Errorf("%w: %q: %v", ErrBadRef, ref, err)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", "", fmt.Errorf("%w: %q: query or fragment not allowed", ErrBadRef, ref)
	}
	p := strings.TrimSuffix(u.Path, "/")
	i := strings.LastIndex(p, "/")
	if i < 0 || p[i+1:] == "" {
		return "", "", fmt.Errorf("%w: %q: missing dataset segment (want %s://host[/base]/dataset)", ErrBadRef, ref, u.Scheme)
	}
	dataset = p[i+1:]
	u.Path = p[:i]
	return u.String(), dataset, nil
}

// openObjStore builds the object-store client for an s3:// reference:
// bucket and key prefix from the reference, endpoint/credentials/region
// from the options with PROGQOI_S3_* environment variables as defaults,
// cache and retry budgets shared with the remote-client options.
func openObjStore(ref string, ro remoteOptions) (*objstore.Store, string, error) {
	bucket, path, err := objstore.SplitRef(ref)
	if err != nil {
		return nil, "", err
	}
	prefix, dataset := "", path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		prefix, dataset = path[:i], path[i+1:]
	}
	if dataset == "" {
		return nil, "", fmt.Errorf("%w: %q: missing dataset segment (want s3://bucket[/prefix]/dataset)", ErrBadRef, ref)
	}
	o := objstore.EnvOptions()
	if ro.s3Endpoint != "" {
		o.Endpoint = ro.s3Endpoint
	}
	if ro.s3Access != "" || ro.s3Secret != "" {
		o.AccessKey, o.SecretKey = ro.s3Access, ro.s3Secret
	}
	if ro.s3Region != "" {
		o.Region = ro.s3Region
	}
	if o.Endpoint == "" {
		return nil, "", fmt.Errorf("%w: %q: s3 needs an endpoint (WithS3Endpoint or %s)", ErrBadRef, ref, objstore.EnvEndpoint)
	}
	o.Bucket, o.Prefix = bucket, prefix
	o.HTTPClient = ro.httpClient
	o.CacheBytes = ro.cacheBytes
	o.MaxRetries = ro.maxRetries
	st, err := objstore.New(o)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %q: %v", ErrBadRef, ref, err)
	}
	return st, dataset, nil
}

// openDirArchive opens a local directory-store archive with resident
// fragments — the file:// and bare-path cases.
func openDirArchive(ctx context.Context, p string) (*Archive, error) {
	dir, dataset := ".", strings.TrimSuffix(p, "/")
	if i := strings.LastIndex(dataset, "/"); i >= 0 {
		dir, dataset = dataset[:i], dataset[i+1:]
	}
	if dataset == "" {
		return nil, fmt.Errorf("%w: %q: missing dataset segment (want dir/dataset)", ErrBadRef, p)
	}
	if dir == "" {
		dir = "/"
	}
	st, err := storage.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	vars, err := storage.ReadArchive(ctx, st, dataset)
	if err != nil {
		return nil, err
	}
	return archiveFromVars(vars), nil
}

// openRemoteArchive is Open's http(s) case.
func openRemoteArchive(ctx context.Context, baseURL, dataset string, ro remoteOptions) (*Archive, error) {
	rem, err := client.Open(ctx, baseURL, dataset, client.Options{
		CacheBytes:      ro.cacheBytes,
		MaxRetries:      ro.maxRetries,
		ReadAhead:       ro.readAhead,
		HTTPClient:      ro.httpClient,
		Endpoints:       ro.endpoints,
		Replication:     ro.replication,
		DiscoverPeers:   ro.discover,
		Token:           ro.token,
		TopologyRefresh: ro.topologyRefresh,
	})
	if err != nil {
		return nil, err
	}
	names := rem.FieldNames()
	return &Archive{
		names:  names,
		dims:   rem.Dims(),
		fields: len(names),
		remote: rem,
	}, nil
}

// archiveFromVars wraps fully loaded variables as a local Archive.
func archiveFromVars(vars []*core.Variable) *Archive {
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = v.Name
	}
	var dims []int
	if len(vars) > 0 {
		dims = append([]int(nil), vars[0].Ref.Dims...)
	}
	return &Archive{vars: vars, names: names, dims: dims, fields: len(vars)}
}

// rangeStore is what a store-backed archive reads: whole blobs for the
// one metadata pass at open, byte ranges for fragments afterwards.
type rangeStore interface {
	storage.Store
	storage.RangeReader
}

// storeArchive is an archive opened directly from a storage.Store (the
// s3:// case): retrieval metadata held locally, fragment payloads
// re-read on demand at their recorded byte ranges. One storeArchive can
// serve many concurrent sessions; the store's read-through cache is the
// shared layer between them.
type storeArchive struct {
	st     rangeStore
	vars   []*core.Variable          // meta-only: fragment payloads stripped
	ranges [][]storage.FragmentRange // ranges[vi][fi] within keys[vi]'s blob
	keys   []string                  // store key of each variable's blob
	stored int64                     // total fragment payload bytes at rest
	wire   atomic.Int64              // fragment payload bytes fetched
}

// openStoreArchive reads the archive's metadata (one pass over each
// variable blob) and returns a session factory whose fragment reads are
// ranged GETs against st.
func openStoreArchive(ctx context.Context, st rangeStore, dataset string) (*Archive, error) {
	vars, ranges, err := storage.ReadArchiveRanged(ctx, st, dataset)
	if err != nil {
		return nil, err
	}
	sa := &storeArchive{st: st, vars: vars, ranges: ranges}
	sa.keys = make([]string, len(vars))
	for i, v := range vars {
		sa.keys[i] = storage.VarKey(dataset, v.Name)
		for _, r := range ranges[i] {
			sa.stored += r.Len
		}
	}
	a := archiveFromVars(vars)
	a.vars, a.store = nil, sa
	return a, nil
}

// newSession opens a lazy session that fetches exactly the byte range of
// every fragment the certify loop plans, through the store's cache, retry
// and ETag-pinning layers.
func (sa *storeArchive) newSession(fetch FetchObserver, cfg SessionConfig) (*core.Retriever, error) {
	cfg.WireBytes = sa.wire.Load
	return core.NewLazyRetriever(sa.vars, cfg, fetch, func(ctx context.Context, want [][]int, install func(v, frag int, payload []byte)) error {
		for vi, idxs := range want {
			for _, fi := range idxs {
				r := sa.ranges[vi][fi]
				b, err := sa.st.GetRange(ctx, sa.keys[vi], r.Off, r.Len)
				if err != nil {
					return err
				}
				install(vi, fi, b)
				sa.wire.Add(int64(len(b)))
			}
		}
		return nil
	})
}

// StoreBacked reports whether the archive reads fragments from an object
// store opened via an s3:// reference.
func (a *Archive) StoreBacked() bool { return a.store != nil }

// StoreStats returns the cold-fetch accounting of a store-backed archive:
// reads that actually reached the bucket, their bytes and wall time.
// Zero for local and progqoid-served archives (use RemoteStats for the
// latter) and for stores that do not keep fetch statistics.
func (a *Archive) StoreStats() StoreFetchStats {
	if a.store == nil {
		return StoreFetchStats{}
	}
	if fs, ok := a.store.st.(storage.FetchStatser); ok {
		return fs.FetchStats()
	}
	return StoreFetchStats{}
}
