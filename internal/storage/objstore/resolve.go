package objstore

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"strings"

	"progqoi/internal/storage"
)

// resolve.go maps store references onto storage.Store implementations, so
// every entry point that accepts "a place archives live" — progqoid
// -store, progqoi pack -store, progqoi.Open — speaks one scheme-dispatched
// grammar instead of growing parallel constructors:
//
//	s3://bucket[/prefix]   object-store bucket (endpoint + credentials
//	                       from Options, typically flags or PROGQOI_S3_*)
//	file:///dir, file://dir, bare path
//	                       local directory (storage.DirStore)
//
// Malformed references fail with errors wrapping ErrBadStoreURL, so a
// daemon can turn any of them into one clean startup diagnostic.

// ErrBadStoreURL reports a store reference that cannot be resolved: an
// unsupported scheme, a missing bucket, or an s3 reference without a
// configured endpoint. Test with errors.Is.
var ErrBadStoreURL = errors.New("objstore: bad store URL")

// Env variable names consulted by EnvOptions — the non-argv channel for
// credentials (secrets on a command line leak through process listings).
const (
	EnvEndpoint  = "PROGQOI_S3_ENDPOINT"
	EnvAccessKey = "PROGQOI_S3_ACCESS_KEY"
	EnvSecretKey = "PROGQOI_S3_SECRET_KEY"
	EnvRegion    = "PROGQOI_S3_REGION"
)

// EnvOptions reads the PROGQOI_S3_* environment variables into an Options
// skeleton (endpoint, credentials, region). Callers overlay explicit
// settings on top; Bucket and Prefix always come from the reference.
func EnvOptions() Options {
	return Options{
		Endpoint:  os.Getenv(EnvEndpoint),
		AccessKey: os.Getenv(EnvAccessKey),
		SecretKey: os.Getenv(EnvSecretKey),
		Region:    os.Getenv(EnvRegion),
	}
}

// SplitRef parses an s3://bucket[/path] reference into its bucket and
// slash-trimmed path ("" for the bucket root). Errors wrap ErrBadStoreURL.
func SplitRef(ref string) (bucket, path string, err error) {
	u, err := url.Parse(ref)
	if err != nil {
		return "", "", fmt.Errorf("%w: %q: %v", ErrBadStoreURL, ref, err)
	}
	if u.Scheme != "s3" {
		return "", "", fmt.Errorf("%w: %q: scheme %q is not s3", ErrBadStoreURL, ref, u.Scheme)
	}
	if u.Host == "" {
		return "", "", fmt.Errorf("%w: %q: missing bucket", ErrBadStoreURL, ref)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", "", fmt.Errorf("%w: %q: query or fragment not allowed", ErrBadStoreURL, ref)
	}
	return u.Host, strings.Trim(u.Path, "/"), nil
}

// ResolveStore maps a store reference onto a live storage.Store:
//
//   - s3://bucket[/prefix] becomes an object-store *Store; opt supplies
//     everything but Bucket and Prefix, and must carry an Endpoint.
//   - file:///dir, file://dir and bare filesystem paths become a
//     *storage.DirStore.
//
// Any other scheme fails with ErrBadStoreURL. Resolution is offline — an
// unreachable endpoint surfaces on the first request (probe with Keys).
func ResolveStore(ref string, opt Options) (storage.Store, error) {
	if ref == "" {
		return nil, fmt.Errorf("%w: empty reference", ErrBadStoreURL)
	}
	switch {
	case strings.HasPrefix(ref, "s3://"):
		bucket, prefix, err := SplitRef(ref)
		if err != nil {
			return nil, err
		}
		if opt.Endpoint == "" {
			return nil, fmt.Errorf("%w: %q: s3 needs an endpoint (set %s, the endpoint flag or WithS3Endpoint)",
				ErrBadStoreURL, ref, EnvEndpoint)
		}
		opt.Bucket, opt.Prefix = bucket, prefix
		st, err := New(opt)
		if err != nil {
			return nil, fmt.Errorf("%w: %q: %v", ErrBadStoreURL, ref, err)
		}
		return st, nil
	case strings.HasPrefix(ref, "file://"):
		dir := strings.TrimPrefix(ref, "file://")
		if dir == "" {
			return nil, fmt.Errorf("%w: %q: missing directory", ErrBadStoreURL, ref)
		}
		return storage.NewDirStore(dir)
	case strings.Contains(ref, "://"):
		return nil, fmt.Errorf("%w: %q: unsupported scheme (want s3://, file:// or a bare path)", ErrBadStoreURL, ref)
	default:
		return storage.NewDirStore(ref)
	}
}
