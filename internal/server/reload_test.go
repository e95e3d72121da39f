package server

// reload_test.go certifies the hot-publish surface: the admin gate on
// POST /v1/datasets/reload, the atomic all-or-nothing catalog swap, the
// crash-safety of manifest-last publishing, and the cache-generation rule
// that keeps a republished dataset from serving its predecessor's bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
	"progqoi/internal/storage"
)

func packDataset(t *testing.T, st storage.Store, name string, seed int64) []*core.Variable {
	t.Helper()
	return packDatasetSized(t, st, name, 96, seed)
}

// packDatasetSized packs 3 blocks of blockSize nodes; a few thousand
// nodes per block yields fragments of several hundred bytes and more.
func packDatasetSized(t *testing.T, st storage.Store, name string, blockSize int, seed int64) []*core.Variable {
	t.Helper()
	ds := datagen.GE("GE-"+name, 3, blockSize, seed)
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteArchive(context.Background(), st, name, vars); err != nil {
		t.Fatal(err)
	}
	return vars
}

func postReload(t *testing.T, url, token string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/datasets/reload", nil)
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
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

func TestReloadAdminGate(t *testing.T) {
	st := storage.NewMemStore()
	packDataset(t, st, "alpha", 1)

	// Admin disabled: the route exists but always refuses.
	srv, err := New(context.Background(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if resp, _ := postReload(t, hs.URL, "whatever"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled admin: %s", resp.Status)
	}

	// Admin enabled: missing and wrong tokens are 401, the right one 200.
	srv2, err := New(context.Background(), st, Options{AdminToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2)
	defer hs2.Close()
	if resp, _ := postReload(t, hs2.URL, ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("missing token: %s", resp.Status)
	}
	if resp, _ := postReload(t, hs2.URL, "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: %s", resp.Status)
	}
	resp, body := postReload(t, hs2.URL, "s3cret")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %s (%s)", resp.Status, body)
	}
	// GET on the route is not allowed.
	if r, _ := get(t, hs2.URL+"/v1/datasets/reload"); r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %s", r.Status)
	}
}

func TestReloadPublishesAndRemoves(t *testing.T) {
	st := storage.NewMemStore()
	packDataset(t, st, "alpha", 1)
	srv, err := New(context.Background(), st, Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// beta does not exist yet.
	if resp, _ := get(t, hs.URL+"/v1/d/beta/index"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("beta before publish: %s", resp.Status)
	}
	packDataset(t, st, "beta", 2)
	resp, body := postReload(t, hs.URL, "tok")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %s", resp.Status)
	}
	var res ReloadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 2 || len(res.Added) != 1 || res.Added[0] != "beta" || len(res.Removed) != 0 {
		t.Fatalf("reload result = %+v", res)
	}
	if resp, _ := get(t, hs.URL+"/v1/d/beta/index"); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta after publish: %s", resp.Status)
	}

	// Removing alpha's manifest unpublishes it on the next reload.
	if err := st.Put(context.Background(), "alpha.manifest", []byte{}); err != nil {
		t.Fatal(err)
	}
	// MemStore has no delete; an empty manifest is invalid, so prove the
	// all-or-nothing rule instead: the reload fails and alpha stays served.
	if resp, _ := postReload(t, hs.URL, "tok"); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload over corrupt manifest: %s", resp.Status)
	}
	if resp, _ := get(t, hs.URL+"/v1/d/alpha/index"); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha after failed reload: %s", resp.Status)
	}
	st2 := srv.Stats()
	if st2.Reloads != 1 || st2.ReloadFailures != 1 || st2.DatasetsLoaded != 3 {
		t.Fatalf("stats = %+v", st2)
	}
	// Metrics expose the publish counters.
	_, mbody := get(t, hs.URL+"/metrics")
	for _, want := range []string{
		"progqoid_reloads_total 1",
		"progqoid_reload_failures_total 1",
		"progqoid_datasets_loaded_total 3",
		`progqoid_route_requests_total{route="reload"}`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestReloadTornPublishIgnored: variable blobs without a manifest — the
// state a packer killed before its commit point leaves behind — are
// invisible to reload.
func TestReloadTornPublishIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	packDataset(t, st, "alpha", 1)
	srv, err := New(context.Background(), st, Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// Torn pack: one variable blob flushed, no manifest committed.
	vars := packDataset(t, st, "scratch", 3)
	w, err := storage.NewArchiveWriter(st, "gamma")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteVariable(context.Background(), vars[0]); err != nil {
		t.Fatal(err)
	}
	// (writer abandoned: simulated SIGKILL before Close)

	resp, body := postReload(t, hs.URL, "tok")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload with torn publish present: %s (%s)", resp.Status, body)
	}
	var res ReloadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Datasets {
		if n == "gamma" {
			t.Fatal("torn publish served")
		}
	}
	if resp, _ := get(t, hs.URL+"/v1/d/alpha/meta"); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha unaffected by torn publish: %s", resp.Status)
	}
}

// TestReloadKeepsUnchangedDatasetsWarm: publishing a new dataset must not
// cold-start serving of the existing ones — a dataset whose stored bytes
// are unchanged is carried across the reload verbatim, hot cache and all.
func TestReloadKeepsUnchangedDatasetsWarm(t *testing.T) {
	st := storage.NewMemStore()
	packDataset(t, st, "stable", 1)
	srv, err := New(context.Background(), st, Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// Warm fragment 0: one miss, then a hit.
	for i := 0; i < 2; i++ {
		if resp, _ := get(t, hs.URL+"/v1/d/stable/frag/VelocityX/0"); resp.StatusCode != http.StatusOK {
			t.Fatalf("frag: %s", resp.Status)
		}
	}
	missesBefore := srv.Stats().HotCacheMisses

	packDataset(t, st, "extra", 2)
	if resp, _ := postReload(t, hs.URL, "tok"); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %s", resp.Status)
	}
	if resp, _ := get(t, hs.URL+"/v1/d/stable/frag/VelocityX/0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("frag after reload: %s", resp.Status)
	}
	after := srv.Stats()
	if after.HotCacheMisses != missesBefore {
		t.Fatalf("unchanged dataset went cold across reload: misses %d -> %d",
			missesBefore, after.HotCacheMisses)
	}
}

// TestReloadRepublishServesFreshBytes: replacing a dataset's contents and
// reloading must serve the new fragments — the hot cache must not leak the
// previous incarnation's bytes through reused keys.
func TestReloadRepublishServesFreshBytes(t *testing.T) {
	st := storage.NewMemStore()
	packDataset(t, st, "ds", 1)
	srv, err := New(context.Background(), st, Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// Warm the hot cache with the first incarnation's fragment 0.
	resp, oldFrag := get(t, hs.URL+"/v1/d/ds/frag/VelocityX/0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frag: %s", resp.Status)
	}
	resp, _ = get(t, hs.URL+"/v1/d/ds/frag/VelocityX/0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frag (cached): %s", resp.Status)
	}

	// Republish the dataset with different data, then reload.
	newVars := packDataset(t, st, "ds", 99)
	if resp, _ := postReload(t, hs.URL, "tok"); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %s", resp.Status)
	}
	resp, newFrag := get(t, hs.URL+"/v1/d/ds/frag/VelocityX/0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frag after republish: %s", resp.Status)
	}
	if !bytes.Equal(newFrag, newVars[0].Ref.Fragments[0]) {
		// Note: packDataset leaves payloads intact in its returned vars —
		// the server's own copy was re-read from the store.
		t.Fatal("republished fragment does not match the new archive")
	}
	if bytes.Equal(newFrag, oldFrag) {
		t.Fatal("republished data identical to old data — test is vacuous")
	}
}
