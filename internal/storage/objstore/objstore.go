// Package objstore is the S3-compatible object-store backend of the
// storage layer: a storage.Store that maps archive reads onto
// authenticated HTTP requests against a bucket, so a progqoid node can
// serve a dataset it holds zero local bytes of. The paper's
// workflow writes refactored fragments to "a storage system" at
// data-generation time; this package makes that system a bucket and the
// serving tier a replaceable cache in front of it.
//
// The read path is built around three invariants:
//
//   - Partial reads are real ranged GETs (`Range: bytes=off-end`): a
//     ranged read moves exactly the requested bytes, never the variable
//     blob around them, and a response whose Content-Range or body
//     length differs from the request is a transport fault, not data.
//
//   - No stale bytes, ever: the first read of an object records its
//     ETag; every later read sends it as If-Match and re-verifies the
//     response header, so an object republished mid-session surfaces as
//     ErrETagChanged instead of a silent mix of old and new fragments —
//     the bucket-facing mirror of the server's hot-cache corruption
//     check.
//
//   - Transient faults are absorbed, permanent ones surface fast:
//     5xx responses, network errors and truncated bodies retry under the
//     shared policy of internal/retry (backoff from 50 ms, doubling, up
//     to Options.MaxRetries retries); 403, 404 and a changed ETag fail
//     immediately with typed errors (storage.ErrNotFound,
//     ErrAccessDenied, ErrETagChanged) a caller can dispatch on.
//
// A byte-bounded read-through LRU (Options.CacheBytes) sits in front of
// the wire; cold fetches — the reads that actually reached the bucket —
// are counted in FetchStats and recorded as obs.CatStore spans, so
// summed span bytes reconcile exactly with the cold-fetch counter a
// /metrics scrape reports.
//
// Requests are signed with AWS Signature V4 (see sigv4.go) when
// credentials are configured; the hermetic mock server in the miniobj
// subpackage verifies those signatures by re-deriving them.
package objstore

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progqoi/internal/lru"
	"progqoi/internal/obs"
	"progqoi/internal/retry"
	"progqoi/internal/storage"
)

// DefaultCacheBytes bounds the read-through cache when Options.CacheBytes
// is zero.
const DefaultCacheBytes = 64 << 20

// ErrETagChanged reports an object whose ETag no longer matches the one
// recorded when this store first read it: the bucket was republished
// mid-session, and serving any bytes from the new incarnation alongside
// metadata from the old one would be silent corruption.
var ErrETagChanged = errors.New("objstore: object changed mid-session (etag mismatch)")

// ErrAccessDenied reports a 403 from the object store — wrong or expired
// credentials, or a bucket policy rejecting the request.
var ErrAccessDenied = errors.New("objstore: access denied")

// StatusError is an unexpected HTTP status from the object store,
// preserved so callers can distinguish transient (5xx, retried before
// surfacing) from permanent failures.
type StatusError struct {
	Op     string // "get", "range", "list", "put"
	Key    string // object key ("" for list)
	Status int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("objstore: %s %q: http %d", e.Op, e.Key, e.Status)
}

// Options configures a Store. Endpoint and Bucket are required.
type Options struct {
	// Endpoint is the object store's base URL (http(s)://host[:port]).
	// Requests are path-style: <endpoint>/<bucket>/<key>.
	Endpoint string
	// Bucket is the bucket holding the archives.
	Bucket string
	// Prefix scopes all keys under a directory-like prefix within the
	// bucket ("" for the bucket root). Leading/trailing slashes are
	// ignored.
	Prefix string
	// Region is the SigV4 signing region (default "us-east-1").
	Region string
	// AccessKey and SecretKey enable SigV4 request signing. Both empty
	// sends unsigned requests (public buckets, signature-less mocks).
	AccessKey string
	SecretKey string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds retries of transient faults per logical read
	// (default 3; negative disables retrying).
	MaxRetries int
	// CacheBytes bounds the read-through cache (default
	// DefaultCacheBytes; negative disables caching).
	CacheBytes int64
}

// Store is an S3-compatible storage.Store whose GetRange is a ranged GET.
// It also implements storage.FetchStatser (cold-fetch accounting) and is
// safe for concurrent use.
type Store struct {
	opts  Options
	base  string // endpoint, no trailing slash
	hc    *http.Client
	creds bool
	// clock times backoff waits (retry.Wall); in-package tests substitute
	// one they drive.
	clock retry.Clock

	mu    sync.Mutex
	etags map[string]string // guarded by mu; object key -> ETag recorded at first read

	cache *lru.Cache

	sigKey atomic.Pointer[signingKey] // last derived SigV4 key; see signingKeyFor

	coldFetches atomic.Int64
	coldBytes   atomic.Int64
	coldNanos   atomic.Int64
}

// New validates opts and returns a Store. No request is sent: a
// misconfigured endpoint surfaces on first use (progqoid probes
// explicitly at startup via Keys).
func New(opts Options) (*Store, error) {
	u, err := url.Parse(opts.Endpoint)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("objstore: endpoint %q is not an absolute http(s) URL", opts.Endpoint)
	}
	if opts.Bucket == "" {
		return nil, fmt.Errorf("objstore: bucket is required")
	}
	if strings.ContainsAny(opts.Bucket, "/?#") {
		return nil, fmt.Errorf("objstore: bucket %q contains path or query characters", opts.Bucket)
	}
	if (opts.AccessKey == "") != (opts.SecretKey == "") {
		return nil, fmt.Errorf("objstore: access key and secret key must be set together")
	}
	if opts.Region == "" {
		opts.Region = "us-east-1"
	}
	opts.Prefix = strings.Trim(opts.Prefix, "/")
	opts.MaxRetries = retry.Retries(opts.MaxRetries)
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	} else if opts.CacheBytes < 0 {
		opts.CacheBytes = 0
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Store{
		opts:  opts,
		base:  strings.TrimRight(opts.Endpoint, "/"),
		hc:    hc,
		creds: opts.AccessKey != "",
		clock: retry.Wall{},
		etags: map[string]string{},
		cache: lru.New(opts.CacheBytes),
	}, nil
}

// objectKey maps a store key to its key inside the bucket.
func (s *Store) objectKey(key string) string {
	if s.opts.Prefix == "" {
		return key
	}
	return s.opts.Prefix + "/" + key
}

// FetchStats implements storage.FetchStatser.
func (s *Store) FetchStats() storage.FetchStats {
	return storage.FetchStats{
		ColdFetches:      s.coldFetches.Load(),
		ColdFetchBytes:   s.coldBytes.Load(),
		ColdFetchSeconds: float64(s.coldNanos.Load()) / 1e9,
	}
}

// Get implements storage.Store: one full-object GET through the
// read-through cache, ETag-pinned like every read.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ck := "g\x00" + key
	if b, ok := s.cache.Get(ck); ok {
		return b, nil
	}
	b, err := s.fetch(ctx, "get", key, -1, -1)
	if err != nil {
		return nil, err
	}
	s.cache.Add(ck, b)
	return b, nil
}

// GetRange implements storage.Store: one `Range: bytes=off-end`
// GET through the read-through cache, returning exactly length bytes.
func (s *Store) GetRange(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("objstore: negative range [%d,%d) for %q", off, off+length, key)
	}
	if length == 0 {
		return []byte{}, nil
	}
	ck := "r\x00" + key + "\x00" + strconv.FormatInt(off, 10) + "\x00" + strconv.FormatInt(length, 10)
	if b, ok := s.cache.Get(ck); ok {
		return b, nil
	}
	// A cached full object covers every range of itself: slice instead of
	// re-fetching bytes already resident (objects are immutable once read —
	// the ETag pin guarantees it — so the shared backing array is safe).
	if full, ok := s.cache.Get("g\x00" + key); ok && off+length <= int64(len(full)) {
		return full[off : off+length], nil
	}
	b, err := s.fetch(ctx, "range", key, off, length)
	if err != nil {
		return nil, err
	}
	s.cache.Add(ck, b)
	return b, nil
}

// fetch performs one logical object read (full when length < 0) with
// retry, ETag pinning, cold-fetch accounting and a CatStore span whose
// Bytes equal exactly the payload this fetch added to the cold counter.
func (s *Store) fetch(ctx context.Context, op, key string, off, length int64) ([]byte, error) {
	var m obs.SpanMark
	if tr := obs.TraceFrom(ctx); tr != nil {
		m = tr.Begin(obs.CatStore, op+" "+key)
	}
	start := time.Now()
	b, err := s.retrying(ctx, func() ([]byte, error) {
		return s.getOnce(ctx, op, key, off, length)
	})
	if err != nil {
		m.End()
		return nil, err
	}
	s.coldFetches.Add(1)
	s.coldBytes.Add(int64(len(b)))
	s.coldNanos.Add(time.Since(start).Nanoseconds())
	m.EndBytes(int64(len(b)))
	return b, nil
}

// getOnce is a single GET attempt. length < 0 reads the whole object;
// otherwise a Range header asks for [off, off+length).
func (s *Store) getOnce(ctx context.Context, op, key string, off, length int64) ([]byte, error) {
	okey := s.objectKey(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.base+"/"+s.opts.Bucket+"/"+awsEncode(okey, false), nil)
	if err != nil {
		return nil, err
	}
	ranged := length >= 0
	if ranged {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	}
	s.mu.Lock()
	pinned := s.etags[okey]
	s.mu.Unlock()
	if pinned != "" {
		req.Header.Set("If-Match", pinned)
	}
	s.sign(req, emptyPayloadSHA256)
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	switch {
	case resp.StatusCode == http.StatusOK && !ranged,
		resp.StatusCode == http.StatusPartialContent && ranged:
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %q", storage.ErrNotFound, key)
	case resp.StatusCode == http.StatusForbidden:
		return nil, fmt.Errorf("%w: %s %q", ErrAccessDenied, op, key)
	case resp.StatusCode == http.StatusPreconditionFailed:
		return nil, fmt.Errorf("%w: %q (recorded %s)", ErrETagChanged, key, pinned)
	default:
		return nil, &StatusError{Op: op, Key: key, Status: resp.StatusCode}
	}
	if err := s.pinETag(okey, resp.Header.Get("ETag"), pinned); err != nil {
		return nil, err
	}
	if !ranged {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("objstore: %s %q: read body: %w", op, key, err)
		}
		return b, nil
	}
	// A 206 of the right length is not enough: a server or proxy that
	// ignores Range can answer with another slice of the object.
	if cr := resp.Header.Get("Content-Range"); !contentRangeIs(cr, off, off+length-1) {
		return nil, fmt.Errorf("objstore: %s %q: Content-Range %q, want bytes %d-%d", op, key, cr, off, off+length-1)
	}
	// One spare byte detects a body longer than the range asked for.
	b := make([]byte, length+1)
	n, err := io.ReadFull(resp.Body, b)
	switch {
	case int64(n) > length:
		return nil, fmt.Errorf("objstore: %s %q: response body longer than %d bytes", op, key, length)
	case int64(n) < length:
		return nil, fmt.Errorf("objstore: %s %q: truncated response: %d bytes, want %d: %w", op, key, n, length, err)
	}
	return b[:length:length], nil
}

// contentRangeIs reports whether a Content-Range header reads
// "bytes first-last/size" for exactly the given first and last bytes.
func contentRangeIs(h string, first, last int64) bool {
	spec, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return false
	}
	span, _, ok := strings.Cut(spec, "/")
	if !ok {
		return false
	}
	a, b, ok := strings.Cut(span, "-")
	if !ok {
		return false
	}
	x, err1 := strconv.ParseInt(a, 10, 64)
	y, err2 := strconv.ParseInt(b, 10, 64)
	return err1 == nil && err2 == nil && x == first && y == last
}

// pinETag records an object's ETag at first read and verifies every
// later response against it — the If-Match header covers the server
// side of the contract, this covers the response side.
func (s *Store) pinETag(okey, got, pinned string) error {
	if got == "" {
		return nil // store without ETags: nothing to verify against
	}
	if pinned != "" {
		if got != pinned {
			return fmt.Errorf("%w: %q (%s != recorded %s)", ErrETagChanged, okey, got, pinned)
		}
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.etags[okey]; ok && prev != got {
		return fmt.Errorf("%w: %q (%s != recorded %s)", ErrETagChanged, okey, got, prev)
	}
	s.etags[okey] = got
	return nil
}

// Keys implements storage.Store via ListObjectsV2 with continuation
// tokens, returning the keys under the configured prefix (nested
// pseudo-directories are skipped — archive keys are flat).
func (s *Store) Keys(ctx context.Context) ([]string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prefix := s.opts.Prefix
	if prefix != "" {
		prefix += "/"
	}
	var out []string
	token := ""
	for {
		q := url.Values{}
		q.Set("list-type", "2")
		if prefix != "" {
			q.Set("prefix", prefix)
		}
		if token != "" {
			q.Set("continuation-token", token)
		}
		page, err := s.retrying(ctx, func() ([]byte, error) {
			return s.listOnce(ctx, q)
		})
		if err != nil {
			return nil, err
		}
		var lr listResult
		if err := xml.Unmarshal(page, &lr); err != nil {
			return nil, fmt.Errorf("objstore: list: %w", err)
		}
		for _, c := range lr.Contents {
			k := strings.TrimPrefix(c.Key, prefix)
			if k == "" || strings.Contains(k, "/") {
				continue
			}
			out = append(out, k)
		}
		if !lr.IsTruncated || lr.NextContinuationToken == "" {
			break
		}
		token = lr.NextContinuationToken
	}
	sort.Strings(out)
	return out, nil
}

// listOnce is a single ListObjectsV2 page request.
func (s *Store) listOnce(ctx context.Context, q url.Values) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.base+"/"+s.opts.Bucket+"?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	s.sign(req, emptyPayloadSHA256)
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusForbidden:
		return nil, fmt.Errorf("%w: list bucket %q", ErrAccessDenied, s.opts.Bucket)
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: bucket %q", storage.ErrNotFound, s.opts.Bucket)
	default:
		return nil, &StatusError{Op: "list", Status: resp.StatusCode}
	}
	return io.ReadAll(resp.Body)
}

// listResult is the subset of the ListObjectsV2 response the store
// consumes.
type listResult struct {
	XMLName               xml.Name `xml:"ListBucketResult"`
	IsTruncated           bool     `xml:"IsTruncated"`
	NextContinuationToken string   `xml:"NextContinuationToken"`
	Contents              []struct {
		Key  string `xml:"Key"`
		ETag string `xml:"ETag"`
		Size int64  `xml:"Size"`
	} `xml:"Contents"`
}

// Put implements storage.Store with one object PUT. A successful write
// re-pins the key's ETag and drops its cached reads, so a republish
// through this store stays self-consistent.
func (s *Store) Put(ctx context.Context, key string, val []byte) error {
	if ctx == nil {
		ctx = context.Background()
	}
	okey := s.objectKey(key)
	payloadHash := hexSHA256(val)
	_, err := s.retrying(ctx, func() ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut,
			s.base+"/"+s.opts.Bucket+"/"+awsEncode(okey, false), strings.NewReader(string(val)))
		if err != nil {
			return nil, err
		}
		req.ContentLength = int64(len(val))
		s.sign(req, payloadHash)
		resp, err := s.hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close() //nolint:errcheck // status-only
		switch resp.StatusCode {
		case http.StatusOK, http.StatusCreated, http.StatusNoContent:
		case http.StatusForbidden:
			return nil, fmt.Errorf("%w: put %q", ErrAccessDenied, key)
		default:
			return nil, &StatusError{Op: "put", Key: key, Status: resp.StatusCode}
		}
		s.mu.Lock()
		if tag := resp.Header.Get("ETag"); tag != "" {
			s.etags[okey] = tag
		} else {
			delete(s.etags, okey)
		}
		s.mu.Unlock()
		return nil, nil
	})
	if err != nil {
		return err
	}
	// Both cached shapes of the object go: the full read ("g\x00<key>") and
	// every ranged read ("r\x00<key>\x00<off>\x00<len>").
	full, ranged := "g\x00"+key, "r\x00"+key+"\x00"
	s.cache.DropFunc(func(ck string) bool { return ck == full || strings.HasPrefix(ck, ranged) })
	return nil
}

// sign applies SigV4 when credentials are configured.
func (s *Store) sign(req *http.Request, payloadHash string) {
	if !s.creds {
		return
	}
	s.signAt(req, payloadHash, time.Now())
}

// retrying runs one attempt-able operation under the shared retry
// policy: transient faults (network errors, 5xx, truncation) back off
// and retry up to MaxRetries; typed permanent failures surface at once.
func (s *Store) retrying(ctx context.Context, attempt func() ([]byte, error)) ([]byte, error) {
	var b []byte
	err := retry.Do(ctx, s.clock, s.opts.MaxRetries, func() (time.Duration, bool, error) {
		var err error
		b, err = attempt()
		return 0, retryable(err), err
	})
	return b, err
}

// retryable classifies an attempt error: 5xx statuses, truncated bodies
// and transport errors are transient; typed failures (missing key,
// denied access, changed ETag, cancellation) are permanent.
func retryable(err error) bool {
	if errors.Is(err, storage.ErrNotFound) || errors.Is(err, ErrAccessDenied) ||
		errors.Is(err, ErrETagChanged) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return true // network error, truncated body, unexpected EOF
}
