// Package miniobj is a hermetic in-process mock of the S3 protocol subset
// the objstore backend speaks: path-style GET/PUT of objects, ranged GETs
// with Content-Range, strong ETags with If-Match/If-None-Match handling,
// ListObjectsV2 with continuation tokens, and (when credentials are
// configured) AWS SigV4 verification by re-deriving the signature from
// the received request — so the signer in the parent package and this
// verifier exercise each other, and a canonicalization bug fails the test
// suite instead of producing requests only a lenient server accepts.
//
// Fault-injection hooks drive the failure matrix the stateless serving
// tier must survive offline: deny every request with 403, fail the next N
// requests with 503, truncate the next N response bodies (Content-Length
// promises more than arrives), delay responses, and mutate an object
// in place so its ETag changes mid-session.
package miniobj

import (
	"crypto/md5" //nolint:gosec // S3 ETags are MD5 by protocol, not a security boundary
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Credentials configures SigV4 verification. Zero value disables it
// (unsigned requests accepted, Authorization ignored).
type Credentials struct {
	AccessKey string
	SecretKey string
	Region    string // default "us-east-1"
}

// Server is one in-process bucket behind an httptest.Server.
type Server struct {
	bucket string
	creds  Credentials
	hs     *httptest.Server

	mu       sync.Mutex
	objects  map[string]object // guarded by mu
	maxKeys  int               // guarded by mu; ListObjectsV2 page size
	deny403  bool              // guarded by mu; every request answers 403
	fail503  int               // guarded by mu; fail the next N requests with 503
	truncate int               // guarded by mu; truncate the next N object bodies
	delay    time.Duration     // guarded by mu; sleep before answering

	gets   int64 // guarded by mu; object GETs served (any status)
	lists  int64 // guarded by mu; ListObjectsV2 pages served
	puts   int64 // guarded by mu; object PUTs accepted
	denied int64 // guarded by mu; requests rejected 403 (policy or signature)
}

type object struct {
	data []byte
	etag string // strong, quoted, md5 — what real S3 sends for simple PUTs
}

// New starts a mock bucket. creds zero value accepts unsigned requests.
func New(bucket string, creds Credentials) *Server {
	if creds.Region == "" {
		creds.Region = "us-east-1"
	}
	s := &Server{
		bucket:  bucket,
		creds:   creds,
		objects: map[string]object{},
		maxKeys: 1000,
	}
	s.hs = httptest.NewServer(http.HandlerFunc(s.serve))
	return s
}

// URL returns the endpoint base URL.
func (s *Server) URL() string { return s.hs.URL }

// Close shuts the listener down.
func (s *Server) Close() { s.hs.Close() }

// Put seeds or replaces an object directly (no HTTP), returning its ETag.
func (s *Server) Put(key string, data []byte) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := object{data: append([]byte(nil), data...), etag: etagOf(data)}
	s.objects[key] = o
	return o.etag
}

// Mutate rewrites an object's bytes in place — the republished-bucket
// fault: the key keeps resolving but its ETag changes, so a pinned reader
// must fail rather than mix incarnations. Reports whether the key existed.
func (s *Server) Mutate(key string, data []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[key]
	s.objects[key] = object{data: append([]byte(nil), data...), etag: etagOf(data)}
	return ok
}

// Delete removes an object.
func (s *Server) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, key)
}

// Keys returns the stored keys, sorted.
func (s *Server) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.objects))
	for k := range s.objects {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ETag returns an object's current ETag ("" when missing).
func (s *Server) ETag(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.objects[key].etag
}

// SetMaxKeys shrinks the ListObjectsV2 page size so pagination paths run
// under test without thousands of objects.
func (s *Server) SetMaxKeys(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxKeys = n
}

// Deny403 makes every request fail 403 (bucket-policy / bad-credentials
// fault) until turned off.
func (s *Server) Deny403(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deny403 = on
}

// Fail503 makes the next n requests answer 503 — the transient fault the
// client's retry budget must absorb.
func (s *Server) Fail503(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail503 = n
}

// TruncateNext makes the next n object GETs promise the full
// Content-Length but deliver half the body, then drop the connection —
// the mid-transfer truncation fault (clients see unexpected EOF).
func (s *Server) TruncateNext(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.truncate = n
}

// SetDelay makes every request sleep first (slow-read fault; pair with a
// request context deadline).
func (s *Server) SetDelay(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delay = d
}

// Stats reports request counters: object GETs, list pages, PUTs, and
// 403-denied requests.
func (s *Server) Stats() (gets, lists, puts, denied int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.lists, s.puts, s.denied
}

// etagOf is the protocol ETag for a simple (non-multipart) object.
func etagOf(b []byte) string {
	sum := md5.Sum(b) //nolint:gosec // protocol checksum
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// errorXML writes an S3-style error document.
func errorXML(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	fmt.Fprintf(w, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Error><Code>%s</Code><Message>%s</Message></Error>", code, msg)
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	delay := s.delay
	deny := s.deny403
	fail := s.fail503 > 0
	if fail {
		s.fail503--
	}
	s.mu.Unlock()
	if delay > 0 {
		// A client that gave up ends the delay: Close waits for handlers,
		// and a slept-out delay would hold it for the whole duration.
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
	}
	if fail {
		errorXML(w, http.StatusServiceUnavailable, "SlowDown", "injected 503")
		return
	}
	if deny {
		s.countDenied()
		errorXML(w, http.StatusForbidden, "AccessDenied", "injected policy denial")
		return
	}
	if s.creds.AccessKey != "" {
		if err := s.verifySignature(r); err != nil {
			s.countDenied()
			errorXML(w, http.StatusForbidden, "SignatureDoesNotMatch", err.Error())
			return
		}
	}
	bucket, key, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
	if !ok {
		bucket = strings.TrimPrefix(r.URL.Path, "/")
	}
	if bucket != s.bucket {
		errorXML(w, http.StatusNotFound, "NoSuchBucket", bucket)
		return
	}
	switch {
	case r.Method == http.MethodGet && key == "":
		s.handleList(w, r)
	case r.Method == http.MethodGet:
		s.handleGet(w, r, key)
	case r.Method == http.MethodPut && key != "":
		s.handlePut(w, r, key)
	default:
		errorXML(w, http.StatusMethodNotAllowed, "MethodNotAllowed", r.Method)
	}
}

func (s *Server) countDenied() {
	s.mu.Lock()
	s.denied++
	s.mu.Unlock()
}

// parseRange parses a "bytes=a-b" header (single range only, both bounds
// required — all the client sends). ok=false means no/unsupported header.
func parseRange(h string) (off, end int64, ok bool) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	a, b, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	off, err1 := strconv.ParseInt(a, 10, 64)
	end, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil || off < 0 || end < off {
		return 0, 0, false
	}
	return off, end, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, key string) {
	s.mu.Lock()
	o, exists := s.objects[key]
	trunc := false
	if exists && s.truncate > 0 {
		s.truncate--
		trunc = true
	}
	s.gets++
	s.mu.Unlock()
	if !exists {
		errorXML(w, http.StatusNotFound, "NoSuchKey", key)
		return
	}
	if im := r.Header.Get("If-Match"); im != "" && im != o.etag && im != "*" {
		errorXML(w, http.StatusPreconditionFailed, "PreconditionFailed", key)
		return
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && (inm == o.etag || inm == "*") {
		w.Header().Set("ETag", o.etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := o.data
	status := http.StatusOK
	if h := r.Header.Get("Range"); h != "" {
		off, end, ok := parseRange(h)
		if !ok || off >= int64(len(o.data)) {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", len(o.data)))
			errorXML(w, http.StatusRequestedRangeNotSatisfiable, "InvalidRange", h)
			return
		}
		if end >= int64(len(o.data)) {
			end = int64(len(o.data)) - 1
		}
		body = o.data[off : end+1]
		status = http.StatusPartialContent
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, end, len(o.data)))
	}
	w.Header().Set("ETag", o.etag)
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if trunc {
		// Promise len(body), deliver half, and cut the connection so the
		// client sees unexpected EOF instead of a clean short read.
		w.Write(body[:len(body)/2]) //nolint:errcheck
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	w.Write(body) //nolint:errcheck
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, key string) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		errorXML(w, http.StatusBadRequest, "IncompleteBody", err.Error())
		return
	}
	s.mu.Lock()
	o := object{data: data, etag: etagOf(data)}
	s.objects[key] = o
	s.puts++
	s.mu.Unlock()
	w.Header().Set("ETag", o.etag)
	w.WriteHeader(http.StatusOK)
}

// listEntry / listDoc mirror the ListObjectsV2 response shape the client
// parses.
type listEntry struct {
	Key  string `xml:"Key"`
	ETag string `xml:"ETag"`
	Size int    `xml:"Size"`
}

type listDoc struct {
	XMLName               xml.Name    `xml:"ListBucketResult"`
	Name                  string      `xml:"Name"`
	Prefix                string      `xml:"Prefix"`
	KeyCount              int         `xml:"KeyCount"`
	MaxKeys               int         `xml:"MaxKeys"`
	IsTruncated           bool        `xml:"IsTruncated"`
	NextContinuationToken string      `xml:"NextContinuationToken,omitempty"`
	Contents              []listEntry `xml:"Contents"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("list-type") != "2" {
		errorXML(w, http.StatusBadRequest, "InvalidArgument", "only list-type=2 is supported")
		return
	}
	prefix := q.Get("prefix")
	after := q.Get("continuation-token") // we use "resume after this key"
	s.mu.Lock()
	maxKeys := s.maxKeys
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) && (after == "" || k > after) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	doc := listDoc{Name: s.bucket, Prefix: prefix, MaxKeys: maxKeys}
	for _, k := range keys {
		if len(doc.Contents) == maxKeys {
			doc.IsTruncated = true
			doc.NextContinuationToken = doc.Contents[len(doc.Contents)-1].Key
			break
		}
		o := s.objects[k]
		doc.Contents = append(doc.Contents, listEntry{Key: k, ETag: o.etag, Size: len(o.data)})
	}
	doc.KeyCount = len(doc.Contents)
	s.lists++
	s.mu.Unlock()
	out, err := xml.Marshal(doc)
	if err != nil {
		errorXML(w, http.StatusInternalServerError, "InternalError", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write([]byte(xml.Header)) //nolint:errcheck
	w.Write(out)                //nolint:errcheck
}
