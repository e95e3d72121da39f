package objstore

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"
)

// sigv4.go implements the subset of AWS Signature Version 4 the object
// store speaks: path-style requests, header signing (no presigned URLs,
// no chunked uploads), the "s3" service. The mock server re-derives the
// signature from the request it receives, so the signer and verifier
// exercise each other — a canonicalization bug fails the test suite
// rather than producing requests only a lenient server accepts.

// amzDateFormat is SigV4's timestamp layout (ISO8601 basic, UTC).
const amzDateFormat = "20060102T150405Z"

// emptyPayloadSHA256 is the hex SHA-256 of zero bytes, precomputed
// because every GET carries it as x-amz-content-sha256.
const emptyPayloadSHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

// signedHeaderSet is the allowlist of headers the signer binds into the
// signature when present, in canonical (sorted) order: name as signed,
// key as stored in http.Header. host, x-amz-content-sha256 and x-amz-date
// are always present; the conditional headers protect the ranged-read
// staleness contract — a proxy cannot strip If-Match without breaking
// the signature.
var signedHeaderSet = [...]struct{ name, key string }{
	{"host", ""},
	{"if-match", "If-Match"},
	{"if-none-match", "If-None-Match"},
	{"range", "Range"},
	{"x-amz-content-sha256", "X-Amz-Content-Sha256"},
	{"x-amz-date", "X-Amz-Date"},
}

// signingKey is a derived SigV4 key with the (date, region) scope it
// signs for.
type signingKey struct {
	date, region string
	key          []byte
}

// signAt signs req in place as of now: sets x-amz-date and
// x-amz-content-sha256 (payloadHash, emptyPayloadSHA256 for bodyless
// requests) and the Authorization header.
func (s *Store) signAt(req *http.Request, payloadHash string, now time.Time) {
	amzDate := now.UTC().Format(amzDateFormat)
	date, region := amzDate[:8], s.opts.Region
	req.Header.Set("X-Amz-Date", amzDate)
	req.Header.Set("X-Amz-Content-Sha256", payloadHash)

	canonical, signedHeaders := canonicalRequest(req, payloadHash)
	scope := date + "/" + region + "/s3/aws4_request"
	toSign := "AWS4-HMAC-SHA256\n" + amzDate + "\n" + scope + "\n" + hexSHA256([]byte(canonical))
	sig := hex.EncodeToString(hmacSHA256(s.signingKeyFor(date, region), []byte(toSign)))
	req.Header.Set("Authorization",
		"AWS4-HMAC-SHA256 Credential="+s.opts.AccessKey+"/"+scope+
			", SignedHeaders="+signedHeaders+
			", Signature="+sig)
}

// signingKeyFor returns the SigV4 key for (date, region), re-running the
// four-HMAC derivation only when that scope changes — once per UTC day
// for a store's fixed region.
func (s *Store) signingKeyFor(date, region string) []byte {
	if k := s.sigKey.Load(); k != nil && k.date == date && k.region == region {
		return k.key
	}
	key := hmacSHA256([]byte("AWS4"+s.opts.SecretKey), []byte(date))
	key = hmacSHA256(key, []byte(region))
	key = hmacSHA256(key, []byte("s3"))
	key = hmacSHA256(key, []byte("aws4_request"))
	s.sigKey.Store(&signingKey{date: date, region: region, key: key})
	return key
}

// canonicalRequest builds the SigV4 canonical request string in one
// buffer and returns it with the semicolon-joined signed-header list,
// which is a substring of it.
func canonicalRequest(req *http.Request, payloadHash string) (canonical, signedHeaders string) {
	var b strings.Builder
	b.Grow(512)
	b.WriteString(req.Method)
	b.WriteByte('\n')
	b.WriteString(canonicalURI(req.URL))
	b.WriteByte('\n')
	b.WriteString(canonicalQuery(req.URL))
	b.WriteByte('\n')
	var signed [len(signedHeaderSet)]bool
	for i, h := range signedHeaderSet {
		var v string
		if h.name == "host" { // Go keeps Host out of req.Header
			v = req.Host
			if v == "" {
				v = req.URL.Host
			}
		} else {
			v = req.Header.Get(h.key)
		}
		if v == "" {
			continue
		}
		signed[i] = true
		b.WriteString(h.name)
		b.WriteByte(':')
		b.WriteString(strings.TrimSpace(v))
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	start := b.Len()
	for i, h := range signedHeaderSet {
		if !signed[i] {
			continue
		}
		if b.Len() > start {
			b.WriteByte(';')
		}
		b.WriteString(h.name)
	}
	end := b.Len()
	b.WriteByte('\n')
	b.WriteString(payloadHash)
	canonical = b.String()
	return canonical, canonical[start:end]
}

// canonicalURI is the aws-encoded path, slashes preserved.
func canonicalURI(u *url.URL) string {
	p := u.EscapedPath()
	if p == "" {
		return "/"
	}
	// Re-encode strictly: decode, then aws-encode keeping slashes.
	if dec, err := url.PathUnescape(p); err == nil {
		return awsEncode(dec, false)
	}
	return p
}

// canonicalQuery sorts the query parameters by name and aws-encodes
// both names and values (slash included).
func canonicalQuery(u *url.URL) string {
	q := u.Query()
	names := make([]string, 0, len(q))
	for k := range q {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		vals := append([]string(nil), q[k]...)
		sort.Strings(vals)
		for _, v := range vals {
			parts = append(parts, awsEncode(k, true)+"="+awsEncode(v, true))
		}
	}
	return strings.Join(parts, "&")
}

// awsEncode is SigV4's URI encoding: unreserved characters pass through,
// everything else becomes %XX (uppercase hex); encodeSlash controls '/'.
func awsEncode(s string, encodeSlash bool) string {
	const hexDigits = "0123456789ABCDEF"
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			b.WriteByte(c)
		case c == '/' && !encodeSlash:
			b.WriteByte(c)
		default:
			b.WriteByte('%')
			b.WriteByte(hexDigits[c>>4])
			b.WriteByte(hexDigits[c&0xf])
		}
	}
	return b.String()
}

func hmacSHA256(key, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	return h.Sum(nil)
}

func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
