package progqoi

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"

	"progqoi/internal/client"
	"progqoi/internal/core"
	"progqoi/internal/encoding"
	"progqoi/internal/par"
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
// locates the store, in the grammar objstore.ResolveStore shares with
// progqoid -store and progqoi pack -store (http(s) aside).

// ErrBadRef reports an Open reference that cannot be resolved: an
// unsupported scheme, a missing dataset segment, or an s3 reference
// without a configured endpoint. It is the same sentinel progqoid's
// -store validation uses, so errors.Is works across both layers.
var ErrBadRef = objstore.ErrBadStoreURL

// StoreFetchStats snapshots an object-store archive's cold-fetch
// accounting: how many reads actually reached the bucket, their bytes,
// and the wall time they spent on the wire. Reads served by the store's
// byte-bounded cache appear nowhere here — compare ColdFetchBytes with a
// session's RetrievedBytes to see what the cache saved. Besides the
// metadata reads at open, a cold fragment read carries each fragment's
// 4-byte section-length prefix, so the fragment share of ColdFetchBytes
// exceeds RetrievedBytes by 4 B per fetched fragment.
type StoreFetchStats = storage.FetchStats

// Open resolves an archive reference and opens it, dispatching on scheme:
//
//   - "s3://bucket[/prefix]/dataset" opens the dataset directly from an
//     S3-compatible object store: retrieval metadata is read once up
//     front, and sessions then fetch the fragments each tolerance needs
//     with one authenticated ranged GET per contiguous run of a
//     variable's fragments, every section-length prefix in the run
//     checked against the recorded fragment length. The endpoint
//     and credentials come from WithS3Endpoint / WithS3Credentials or the
//     PROGQOI_S3_* environment variables; every read is ETag-pinned, so
//     a bucket republished mid-session surfaces as an error, never as
//     stale bytes.
//
//   - "http://…" / "https://…" opens a dataset served by a progqoid
//     fragment service: the base URL is the reference minus its last
//     path segment. All cluster options (WithEndpoints, WithReplication,
//     WithPeerDiscovery, WithTopologyRefresh) apply.
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
	if strings.HasPrefix(ref, "http://") || strings.HasPrefix(ref, "https://") {
		base, dataset, err := splitHTTPRef(ref)
		if err != nil {
			return nil, err
		}
		return openRemoteArchive(ctx, base, dataset, ro)
	}
	// Split off the dataset; the rest is a store reference in
	// objstore.ResolveStore's grammar. A bare dataset lives in ".", one
	// directly under the root in "/"; a bucket always needs a dataset
	// segment after it.
	scheme, p, found := strings.Cut(ref, "://")
	if !found {
		scheme, p = "", ref
	}
	p = strings.TrimSuffix(p, "/")
	i := strings.LastIndex(p, "/")
	loc, dataset := p[:max(i, 0)], p[i+1:]
	switch {
	case dataset == "" || (scheme == "s3" && i < 0) || strings.ContainsAny(dataset, "?#"):
		return nil, fmt.Errorf("%w: %q: want <store>/<dataset>, with no query or fragment", ErrBadRef, ref)
	case i < 0:
		loc = "."
	case loc == "":
		loc = "/"
	}
	if found {
		loc = scheme + "://" + loc
	}
	st, err := objstore.ResolveStore(loc, s3Options(ro))
	if err != nil {
		return nil, err
	}
	if scheme == "s3" {
		return openStoreArchive(ctx, st, dataset)
	}
	vars, err := storage.ReadArchive(ctx, st, dataset)
	if err != nil {
		return nil, err
	}
	return archiveFromVars(vars, totalBytes(vars)), nil
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

// s3Options is the object-store configuration for an s3:// reference:
// endpoint, credentials and region from the options with PROGQOI_S3_*
// environment variables as defaults, cache and retry budgets shared with
// the remote-client options. Bucket and prefix come from the reference.
func s3Options(ro remoteOptions) objstore.Options {
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
	o.HTTPClient = ro.httpClient
	o.CacheBytes = ro.cacheBytes
	o.MaxRetries = ro.maxRetries
	return o
}

// openRemoteArchive is Open's http(s) case: the dataset's metadata once,
// and the client's fetch for the fragments a session plans.
func openRemoteArchive(ctx context.Context, baseURL, dataset string, ro remoteOptions) (*Archive, error) {
	c, err := client.Open(ctx, baseURL, client.Options{
		CacheBytes:      ro.cacheBytes,
		MaxRetries:      ro.maxRetries,
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
	ds, err := c.Dataset(ctx, dataset)
	if err != nil {
		c.Close()
		return nil, err
	}
	a := archiveFromVars(ds.Vars, ds.Stored)
	a.client, a.wire, a.fetch = c, c.WireBytes, ds.Fetch
	return a, nil
}

// archiveFromVars wraps opened variables as an Archive holding stored
// fragment bytes at rest.
func archiveFromVars(vars []*core.Variable, stored int64) *Archive {
	var dims []int
	if len(vars) > 0 {
		dims = append([]int(nil), vars[0].Ref.Dims...)
	}
	return &Archive{vars: vars, dims: dims, stored: stored}
}

// totalBytes sums the fragment bytes of resident variables.
func totalBytes(vars []*core.Variable) int64 {
	var n int64
	for _, v := range vars {
		n += v.Ref.TotalBytes()
	}
	return n
}

// openStoreArchive is Open's s3 case: it reads the archive once (one Get
// per blob), keeps its metadata and fragment ranges, and drops the
// payloads. Sessions then fetch the fragments each iteration plans with
// one ranged GET per run of consecutive fragment indices of a variable,
// through the store's cache, retry and ETag-pinning layers; the store's
// read-through cache is the layer concurrent sessions share.
func openStoreArchive(ctx context.Context, st storage.Store, dataset string) (*Archive, error) {
	vars, ranges, err := storage.ReadArchiveRanged(ctx, st, dataset)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(vars))
	var stored int64
	for i, v := range vars {
		keys[i] = storage.VarKey(dataset, v.Name)
		for j, r := range ranges[i] {
			stored += r.Len
			v.Ref.Fragments[j] = nil
		}
	}
	// wire counts the bytes fetched, section-length prefixes included.
	var wire atomic.Int64
	a := archiveFromVars(vars, stored)
	a.store, a.wire = st, wire.Load
	a.fetch = func(ctx context.Context, _ *par.Budget, want [][]int, install func(v, frag int, payload []byte)) error {
		for vi, idxs := range want {
			slices.Sort(idxs)
			for len(idxs) > 0 {
				n := 1
				for n < len(idxs) && idxs[n] == idxs[n-1]+1 {
					n++
				}
				read, err := fetchRun(ctx, st, keys[vi], ranges[vi], vi, idxs[:n], install)
				wire.Add(read)
				if err != nil {
					return err
				}
				idxs = idxs[n:]
			}
		}
		return nil
	}
	return a, nil
}

// fetchRun reads fragments run, ascending consecutive indices of
// variable vi stored under key at ranges, with one ranged GET, and
// returns the bytes it read. The read starts at the first fragment's
// 4-byte section-length prefix, so every fragment's prefix lies inside
// the buffer; each must equal the fragment's recorded length before any
// payload of the run is installed. A variable's fragment sections are
// contiguous in its blob (FORMATS.md), so the over-read is exactly those
// prefixes.
func fetchRun(ctx context.Context, st storage.Store, key string, ranges []storage.FragmentRange, vi int, run []int, install func(v, frag int, payload []byte)) (int64, error) {
	base, last := ranges[run[0]].Off-4, ranges[run[len(run)-1]]
	b, err := st.GetRange(ctx, key, base, last.Off+last.Len-base)
	if err != nil {
		return 0, err
	}
	for _, fi := range run {
		r := ranges[fi]
		if got := binary.LittleEndian.Uint32(b[r.Off-base-4:]); int64(got) != r.Len {
			return int64(len(b)), fmt.Errorf("%w: %s fragment %d: section length %d, recorded %d", encoding.ErrCorrupt, key, fi, got, r.Len)
		}
	}
	for _, fi := range run {
		lo := ranges[fi].Off - base
		hi := lo + ranges[fi].Len
		install(vi, fi, b[lo:hi:hi]) // capped: no payload can grow into the next
	}
	return int64(len(b)), nil
}

// StoreBacked reports whether the archive reads fragments from an object
// store opened via an s3:// reference.
func (a *Archive) StoreBacked() bool { return a.store != nil }

// StoreStats returns the cold-fetch accounting of a store-backed archive:
// reads that actually reached the bucket, their bytes and wall time.
// Zero for local and progqoid-served archives (use RemoteStats for the
// latter) and for stores that do not keep fetch statistics.
func (a *Archive) StoreStats() StoreFetchStats {
	if fs, ok := a.store.(storage.FetchStatser); ok {
		return fs.FetchStats()
	}
	return StoreFetchStats{}
}
