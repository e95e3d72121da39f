package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
	"progqoi/internal/server"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
	"progqoi/internal/storage/objstore/miniobj"
)

func writeArchiveDir(t *testing.T, dir string) []*core.Variable {
	t.Helper()
	st, err := storage.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return writeArchiveStore(t, st)
}

// writeArchiveStore packs the test dataset "ge" into any store — a
// directory for the bare path, an object-store client for the
// stateless-tier tests (where the pack doubles as signed-PUT coverage).
func writeArchiveStore(t *testing.T, st storage.Store) []*core.Variable {
	t.Helper()
	ds := datagen.GE("GE-daemon", 4, 96, 7)
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	return vars
}

func TestNewServerServesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	writeArchiveDir(t, dir)
	srv, err := newServer(context.Background(), dir, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Datasets(); len(got) != 1 || got[0] != "ge" {
		t.Fatalf("datasets = %v", got)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %s", resp.Status)
	}
	var st server.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.Datasets != 1 {
		t.Fatalf("healthz = %+v", st)
	}
}

func TestRunRequiresDir(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing -store accepted")
	}
}

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("http://a:1,https://b:2/, http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "https://b:2", "http://c:3"}
	if len(got) != 3 {
		t.Fatalf("peers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peers[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if p, err := parsePeers(""); err != nil || p != nil {
		t.Fatalf("empty list: %v %v", p, err)
	}
	for _, bad := range []string{"not-a-url", "ftp://x:1", "http://a:1,,http://b:2", "http://a:1,",
		"http://a:1?x", "http://a:1#f", "http://u:p@a:1"} {
		if _, err := parsePeers(bad); err == nil {
			t.Fatalf("malformed peers %q accepted", bad)
		}
	}
}

func TestClusterFlagsReachClusterEndpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	writeArchiveDir(t, dir)
	srv, err := newClusterServer(context.Background(), dir, 8, 0, "http://me:9123", []string{"http://peer:9123"}, "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var info server.ClusterInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Advertise != "http://me:9123" || len(info.Peers) != 1 || info.Peers[0] != "http://peer:9123" {
		t.Fatalf("cluster info = %+v", info)
	}
}

// TestAdminFlagEnablesReload: the -admin token plumbs through to the hot-
// publish route; without it the route stays disabled.
func TestAdminFlagEnablesReload(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	writeArchiveDir(t, dir)
	reload := func(srv *server.Server, token string) int {
		hs := httptest.NewServer(srv)
		defer hs.Close()
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/datasets/reload", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	off, err := newClusterServer(context.Background(), dir, 8, 0, "", nil, "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code := reload(off, "tok"); code != http.StatusForbidden {
		t.Fatalf("reload without -admin: %d", code)
	}
	on, err := newClusterServer(context.Background(), dir, 8, 0, "", nil, "tok", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code := reload(on, "tok"); code != http.StatusOK {
		t.Fatalf("reload with -admin: %d", code)
	}
}

// runErr drives run in a goroutine and returns its error, failing the
// test if the daemon neither errors nor keeps serving as expected.
func runErr(t *testing.T, wantErr bool, args ...string) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- run(args) }()
	select {
	case err := <-errc:
		if wantErr && err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("run(%v) did not return", args)
		return nil
	}
}

func TestRunStartupErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	writeArchiveDir(t, dir)

	t.Run("missing dir flag", func(t *testing.T) {
		runErr(t, true)
	})
	t.Run("unknown flag", func(t *testing.T) {
		runErr(t, true, "-no-such-flag")
	})
	t.Run("dir is a file", func(t *testing.T) {
		f := filepath.Join(t.TempDir(), "plain")
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		runErr(t, true, "-store", f)
	})
	t.Run("malformed peers", func(t *testing.T) {
		err := runErr(t, true, "-store", dir, "-peers", "not-a-url")
		if err == nil || !strings.Contains(err.Error(), "-peers") {
			t.Fatalf("error %v does not name -peers", err)
		}
	})
	t.Run("malformed advertise", func(t *testing.T) {
		err := runErr(t, true, "-store", dir, "-advertise", "nope")
		if err == nil || !strings.Contains(err.Error(), "-advertise") {
			t.Fatalf("error %v does not name -advertise", err)
		}
	})
	t.Run("advertise with a query", func(t *testing.T) {
		err := runErr(t, true, "-store", dir, "-advertise", "http://n:1?x")
		if err == nil || !strings.Contains(err.Error(), "-advertise") {
			t.Fatalf("error %v does not name -advertise", err)
		}
	})
	t.Run("busy port", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		err = runErr(t, true, "-store", dir, "-addr", ln.Addr().String())
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), "address already in use") {
			t.Fatalf("busy port error = %v", err)
		}
	})
	t.Run("corrupt archive dir", func(t *testing.T) {
		bad := t.TempDir()
		if err := os.WriteFile(filepath.Join(bad, "ds.manifest"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		runErr(t, true, "-store", bad)
	})
	t.Run("join requires advertise", func(t *testing.T) {
		err := runErr(t, true, "-store", dir, "-join", "http://seed:9123")
		if err == nil || !strings.Contains(err.Error(), "-advertise") {
			t.Fatalf("error %v does not demand -advertise", err)
		}
	})
	t.Run("heartbeat requires advertise", func(t *testing.T) {
		err := runErr(t, true, "-store", dir, "-heartbeat", "50ms")
		if err == nil || !strings.Contains(err.Error(), "-advertise") {
			t.Fatalf("error %v does not demand -advertise", err)
		}
	})
	t.Run("malformed join seed", func(t *testing.T) {
		err := runErr(t, true, "-store", dir, "-advertise", "http://n:1", "-join", "nope")
		if err == nil || !strings.Contains(err.Error(), "-join") {
			t.Fatalf("error %v does not name -join", err)
		}
	})
	t.Run("membership timers need elastic mode", func(t *testing.T) {
		err := runErr(t, true, "-store", dir, "-suspect-after", "1s")
		if err == nil || !strings.Contains(err.Error(), "elastic") {
			t.Fatalf("error %v does not explain the elastic requirement", err)
		}
	})
	t.Run("negative heartbeat rejected", func(t *testing.T) {
		err := runErr(t, true, "-store", dir, "-advertise", "http://n:1", "-heartbeat", "-1s")
		if err == nil {
			t.Fatal("negative heartbeat accepted")
		}
	})
}

// clearS3Env isolates a subtest from any ambient PROGQOI_S3_*
// configuration so the store-validation cases exercise exactly the flags
// they pass.
func clearS3Env(t *testing.T) {
	t.Helper()
	for _, k := range []string{objstore.EnvEndpoint, objstore.EnvAccessKey, objstore.EnvSecretKey, objstore.EnvRegion} {
		t.Setenv(k, "")
	}
}

// TestRunStoreValidation covers the -store startup contract: malformed or
// unsupported references fail with a typed error before any listener
// binds, and an s3 reference is probed at boot so a dead or denying
// bucket cannot produce a half-alive daemon.
func TestRunStoreValidation(t *testing.T) {
	t.Run("dir flag is retired", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "arch")
		writeArchiveDir(t, dir)
		err := runErr(t, true, "-dir", dir)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -dir") {
			t.Fatalf("-dir error = %v, want an unknown-flag error", err)
		}
	})
	t.Run("unknown scheme", func(t *testing.T) {
		err := runErr(t, true, "-store", "gs://bucket/prefix")
		if !errors.Is(err, objstore.ErrBadStoreURL) {
			t.Fatalf("gs:// error = %v, want ErrBadStoreURL", err)
		}
	})
	t.Run("missing bucket", func(t *testing.T) {
		err := runErr(t, true, "-store", "s3://")
		if !errors.Is(err, objstore.ErrBadStoreURL) {
			t.Fatalf("bucketless error = %v, want ErrBadStoreURL", err)
		}
	})
	t.Run("s3 without endpoint", func(t *testing.T) {
		clearS3Env(t)
		err := runErr(t, true, "-store", "s3://bucket/prefix")
		if !errors.Is(err, objstore.ErrBadStoreURL) {
			t.Fatalf("endpointless error = %v, want ErrBadStoreURL", err)
		}
	})
	t.Run("unreachable endpoint", func(t *testing.T) {
		clearS3Env(t)
		err := runErr(t, true, "-store", "s3://bucket", "-store-endpoint", "http://127.0.0.1:1")
		if err == nil || !strings.Contains(err.Error(), "store s3://bucket") {
			t.Fatalf("unreachable-endpoint error %v does not name the store", err)
		}
	})
	t.Run("access denied at boot", func(t *testing.T) {
		clearS3Env(t)
		srv := miniobj.New("bkt", miniobj.Credentials{AccessKey: "AK", SecretKey: "SK"})
		defer srv.Close()
		srv.Deny403(true)
		t.Setenv(objstore.EnvAccessKey, "AK")
		t.Setenv(objstore.EnvSecretKey, "SK")
		err := runErr(t, true, "-store", "s3://bkt", "-store-endpoint", srv.URL())
		if !errors.Is(err, objstore.ErrAccessDenied) {
			t.Fatalf("denied-bucket error = %v, want ErrAccessDenied", err)
		}
	})
}

// TestStoreFlagServesFromObjectStore is the daemon-level stateless-tier
// check: the catalog and every fragment come from a mock bucket reached
// through -store s3:// with zero archive bytes on local disk, and
// file://dir resolves to the same catalog as the bare path.
func TestStoreFlagServesFromObjectStore(t *testing.T) {
	ctx := context.Background()
	srv := miniobj.New("bkt", miniobj.Credentials{AccessKey: "AK", SecretKey: "SK"})
	defer srv.Close()
	seed, err := objstore.New(objstore.Options{
		Endpoint: srv.URL(), Bucket: "bkt", Prefix: "team/v1",
		AccessKey: "AK", SecretKey: "SK",
	})
	if err != nil {
		t.Fatal(err)
	}
	writeArchiveStore(t, seed)

	t.Setenv(objstore.EnvEndpoint, srv.URL())
	t.Setenv(objstore.EnvAccessKey, "AK")
	t.Setenv(objstore.EnvSecretKey, "SK")
	t.Setenv(objstore.EnvRegion, "")
	s, err := newServer(ctx, "s3://bkt/team/v1", 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Datasets(); len(got) != 1 || got[0] != "ge" {
		t.Fatalf("datasets from bucket = %v", got)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/d/ge/index")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // status is the assertion
	resp.Body.Close()              //nolint:errcheck // test request
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/d/ge/index = %d", resp.StatusCode)
	}

	dir := filepath.Join(t.TempDir(), "arch")
	writeArchiveDir(t, dir)
	viaFile, err := newServer(ctx, "file://"+dir, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := viaFile.Datasets(); len(got) != 1 || got[0] != "ge" {
		t.Fatalf("datasets via file:// = %v", got)
	}
}

func TestHelpFlagIsNotAnError(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("-h returned %v, want nil", err)
	}
}

func TestNewLoggerValidation(t *testing.T) {
	for _, tc := range []struct {
		format, level string
		ok            bool
	}{
		{"text", "info", true},
		{"json", "debug", true},
		{"text", "WARN", true}, // level is case-insensitive
		{"yaml", "info", false},
		{"text", "loud", false},
	} {
		_, err := newLogger(tc.format, tc.level)
		if (err == nil) != tc.ok {
			t.Errorf("newLogger(%q, %q) err = %v, want ok=%v", tc.format, tc.level, err, tc.ok)
		}
	}
}

// TestPprofGating covers the -pprof contract: the flag demands -admin, and
// the mounted /debug/pprof/ routes answer only to the admin bearer token
// while normal service routes stay public.
func TestPprofGating(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	writeArchiveDir(t, dir)

	err := runErr(t, true, "-store", dir, "-pprof")
	if err == nil || !strings.Contains(err.Error(), "-admin") {
		t.Fatalf("-pprof without -admin: err = %v, want mention of -admin", err)
	}

	srv, err := newServer(context.Background(), dir, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(withPprof(srv, "sekrit"))
	defer hs.Close()

	get := func(path, auth string) int {
		t.Helper()
		req, err := http.NewRequest("GET", hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	if s := get("/debug/pprof/", ""); s != http.StatusUnauthorized {
		t.Errorf("unauthenticated pprof index: status %d, want 401", s)
	}
	if s := get("/debug/pprof/heap", "Bearer wrong"); s != http.StatusUnauthorized {
		t.Errorf("wrong-token pprof heap: status %d, want 401", s)
	}
	if s := get("/debug/pprof/", "Bearer sekrit"); s != http.StatusOK {
		t.Errorf("authenticated pprof index: status %d, want 200", s)
	}
	if s := get("/debug/pprof/heap", "Bearer sekrit"); s != http.StatusOK {
		t.Errorf("authenticated pprof heap: status %d, want 200", s)
	}
	// Non-pprof routes fall through ungated.
	if s := get("/healthz", ""); s != http.StatusOK {
		t.Errorf("healthz through pprof wrapper: status %d, want 200", s)
	}
}
