package progqoi

// open_test.go pins the reference grammar Open accepts: which store and
// dataset every accepted form resolves to, and which forms fail with
// ErrBadRef before any store is touched.

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/server"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
	"progqoi/internal/storage/objstore/miniobj"
)

// TestOpenRefGrammar packs one small archive under a distinct dataset name
// at every place a reference can point (a directory relative to the
// working directory, the working directory itself, an absolute
// directory, the bucket root, a bucket prefix, a fragment service), so a
// reference that resolved to the wrong store or dataset fails to open.
func TestOpenRefGrammar(t *testing.T) {
	ctx := context.Background()
	ds := datagen.GE("GE-grammar", 2, 64, 7)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	pack := func(st storage.Store, name string) {
		t.Helper()
		if err := storage.WriteArchive(ctx, st, name, arch.Variables()); err != nil {
			t.Fatal(err)
		}
	}
	packDir := func(dir, name string) {
		t.Helper()
		st, err := storage.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		pack(st, name)
	}

	// Relative forms resolve against the working directory.
	cwd := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // best-effort restore
	packDir(filepath.Join(cwd, "sub"), "rel")
	packDir(cwd, "here")
	abs := filepath.Join(t.TempDir(), "abs")
	packDir(abs, "absds")

	srv := miniobj.New(e2eBucket, miniobj.Credentials{AccessKey: e2eAccess, SecretKey: e2eSecret})
	t.Cleanup(srv.Close)
	pack(bucketStore(t, srv, func(o *objstore.Options) { o.Prefix = "" }), "rootds")
	pack(bucketStore(t, srv, func(o *objstore.Options) { o.Prefix = "a/b" }), "deepds")
	s3 := []RemoteOption{WithS3Endpoint(srv.URL()), WithS3Credentials(e2eAccess, e2eSecret)}

	hs := httptest.NewServer(serveArchiveHandler(t, arch, "httpds", server.Options{}))
	defer hs.Close()

	for _, tc := range []struct {
		name  string // subtest name when ref holds a per-run path or port
		ref   string
		opts  []RemoteOption
		store bool // fragments read from the store on demand
	}{
		{ref: "sub/rel"},
		{ref: "here"},
		{name: "abs/absds", ref: abs + "/absds"},
		{ref: "file://sub/rel"},
		{name: "file://abs/absds", ref: "file://" + abs + "/absds"},
		{ref: "file://here"},
		{ref: "s3://" + e2eBucket + "/rootds", opts: s3, store: true},
		{ref: "s3://" + e2eBucket + "/a/b/deepds", opts: s3, store: true},
		{name: "http/httpds", ref: hs.URL + "/httpds"},
	} {
		name := tc.name
		if name == "" {
			name = tc.ref
		}
		t.Run(name, func(t *testing.T) {
			a, err := Open(ctx, tc.ref, tc.opts...)
			if err != nil {
				t.Fatalf("Open(%q): %v", tc.ref, err)
			}
			if !slices.Equal(a.FieldNames(), ds.FieldNames) {
				t.Fatalf("fields %v, want %v", a.FieldNames(), ds.FieldNames)
			}
			if a.StoreBacked() != tc.store {
				t.Fatalf("StoreBacked() = %v, want %v", a.StoreBacked(), tc.store)
			}
			if a.StoredBytes() != arch.StoredBytes() {
				t.Fatalf("StoredBytes() = %d, want %d", a.StoredBytes(), arch.StoredBytes())
			}
			want := arch.Variables()
			for vi, v := range a.vars {
				for fi, f := range v.Ref.Fragments {
					if a.fetch != nil {
						// Metadata only: every payload is fetched on demand.
						if len(f) != 0 {
							t.Fatalf("%s fragment %d holds %d payload bytes after Open", v.Name, fi, len(f))
						}
					} else if !bytes.Equal(f, want[vi].Ref.Fragments[fi]) {
						t.Fatalf("%s fragment %d differs from the packed archive", v.Name, fi)
					}
				}
			}
		})
	}

	t.Setenv(objstore.EnvEndpoint, "")
	for _, tc := range []struct {
		ref  string
		opts []RemoteOption
	}{
		{ref: ""},
		{ref: "gs://bkt/ds"},
		{ref: "gs://"},
		{ref: "file://"},
		{ref: "s3://" + e2eBucket, opts: s3},
		{ref: "s3://" + e2eBucket + "/", opts: s3},
		{ref: "s3://" + e2eBucket + "/rootds"}, // no endpoint
		{ref: "s3://" + e2eBucket + "/rootds?v=1", opts: s3},
		{ref: "http://127.0.0.1:1"},
		{ref: "http://127.0.0.1:1/"},
		{ref: "http://127.0.0.1:1/ds?tenant=x"},
	} {
		t.Run("reject "+tc.ref, func(t *testing.T) {
			if _, err := Open(ctx, tc.ref, tc.opts...); !errors.Is(err, ErrBadRef) {
				t.Fatalf("Open(%q) err = %v, want ErrBadRef", tc.ref, err)
			}
		})
	}
}
