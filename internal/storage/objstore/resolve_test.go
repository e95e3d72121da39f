package objstore

import (
	"context"
	"errors"
	"testing"

	"progqoi/internal/storage"
)

func TestSplitRef(t *testing.T) {
	cases := []struct {
		ref          string
		bucket, path string
		wantErr      bool
	}{
		{"s3://bucket", "bucket", "", false},
		{"s3://bucket/", "bucket", "", false},
		{"s3://bucket/prefix", "bucket", "prefix", false},
		{"s3://bucket/a/b/c/", "bucket", "a/b/c", false},
		{"s3://", "", "", true},                   // missing bucket
		{"s3:///prefix", "", "", true},            // missing bucket, path only
		{"http://bucket/p", "", "", true},         // wrong scheme
		{"bucket/prefix", "", "", true},           // no scheme
		{"s3://bucket/p?version=2", "", "", true}, // query
		{"s3://bucket/p#frag", "", "", true},      // fragment
	}
	for _, tc := range cases {
		bucket, path, err := SplitRef(tc.ref)
		if tc.wantErr {
			if !errors.Is(err, ErrBadStoreURL) {
				t.Errorf("SplitRef(%q): err = %v, want ErrBadStoreURL", tc.ref, err)
			}
			continue
		}
		if err != nil || bucket != tc.bucket || path != tc.path {
			t.Errorf("SplitRef(%q) = (%q, %q, %v), want (%q, %q)", tc.ref, bucket, path, err, tc.bucket, tc.path)
		}
	}
}

func TestResolveStore(t *testing.T) {
	dir := t.TempDir()

	// Bare paths and file:// URLs resolve to directory stores.
	for _, ref := range []string{dir, "file://" + dir} {
		st, err := ResolveStore(ref, Options{})
		if err != nil {
			t.Fatalf("ResolveStore(%q): %v", ref, err)
		}
		if _, ok := st.(*storage.DirStore); !ok {
			t.Fatalf("ResolveStore(%q) = %T, want *storage.DirStore", ref, st)
		}
	}

	// s3:// with an endpoint resolves to an object store carrying the
	// reference's bucket and prefix.
	st, err := ResolveStore("s3://bkt/some/prefix", Options{Endpoint: "http://localhost:1"})
	if err != nil {
		t.Fatalf("ResolveStore(s3): %v", err)
	}
	os, ok := st.(*Store)
	if !ok {
		t.Fatalf("ResolveStore(s3) = %T, want *Store", st)
	}
	if os.opts.Bucket != "bkt" || os.opts.Prefix != "some/prefix" {
		t.Fatalf("resolved bucket/prefix = %q/%q", os.opts.Bucket, os.opts.Prefix)
	}

	// Failure shapes all wrap ErrBadStoreURL so a daemon can classify them.
	bad := []struct {
		name string
		ref  string
		opt  Options
	}{
		{"empty reference", "", Options{}},
		{"s3 without endpoint", "s3://bkt/p", Options{}},
		{"s3 missing bucket", "s3://", Options{Endpoint: "http://localhost:1"}},
		{"s3 with query", "s3://bkt/p?x=1", Options{Endpoint: "http://localhost:1"}},
		{"bad endpoint", "s3://bkt/p", Options{Endpoint: "not a url"}},
		{"unsupported scheme", "gs://bkt/p", Options{}},
		{"empty file URL", "file://", Options{}},
	}
	for _, tc := range bad {
		if _, err := ResolveStore(tc.ref, tc.opt); !errors.Is(err, ErrBadStoreURL) {
			t.Errorf("%s: ResolveStore(%q) err = %v, want ErrBadStoreURL", tc.name, tc.ref, err)
		}
	}
}

func TestEnvOptions(t *testing.T) {
	t.Setenv(EnvEndpoint, "http://minio.local:9000")
	t.Setenv(EnvAccessKey, "AK")
	t.Setenv(EnvSecretKey, "SK")
	t.Setenv(EnvRegion, "eu-west-1")
	got := EnvOptions()
	if got.Endpoint != "http://minio.local:9000" || got.AccessKey != "AK" ||
		got.SecretKey != "SK" || got.Region != "eu-west-1" {
		t.Fatalf("EnvOptions = %+v", got)
	}
}

func TestResolvedStoreRoundTrips(t *testing.T) {
	// ResolveStore output must be a working Store, not just a typed value.
	dir := t.TempDir()
	st, err := ResolveStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := st.Put(ctx, "k.manifest", []byte("v")); err != nil {
		t.Fatal(err)
	}
	b, err := st.Get(ctx, "k.manifest")
	if err != nil || string(b) != "v" {
		t.Fatalf("round trip = %q, %v", b, err)
	}
}
