package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

func writeField(t *testing.T, path string, n int) []float64 {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 75*math.Sin(float64(i)/40) + 12*math.Cos(float64(i)/9)
	}
	if err := writeF64(path, vals); err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestParseDims(t *testing.T) {
	d, err := parseDims("4x5x6")
	if err != nil || len(d) != 3 || d[0] != 4 || d[2] != 6 {
		t.Fatalf("%v %v", d, err)
	}
	for _, bad := range []string{"", "x", "0", "3x-1", "axb"} {
		if _, err := parseDims(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseMethod(t *testing.T) {
	for _, name := range []string{"psz3", "psz3-delta", "pmgard", "pmgard-hb", ""} {
		if _, err := parseMethod(name); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	if _, err := parseMethod("zfp"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestF64RoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.f64")
	want := writeField(t, path, 100)
	got, err := readF64(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d differs", i)
		}
	}
	// Odd-size file rejected.
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readF64(path); err == nil {
		t.Fatal("odd-size file accepted")
	}
}

// packFields packs the inputs, all of n values, as dataset demo with the
// given fields into store and returns the bare dir/dataset reference.
func packFields(t *testing.T, store, fields string, n int, inputs ...string) string {
	t.Helper()
	args := append([]string{"-dims", strconv.Itoa(n), "-dataset", "demo", "-fields", fields, "-store", store}, inputs...)
	if err := cmdPack(args); err != nil {
		t.Fatal(err)
	}
	return store + "/demo"
}

// serve starts a progqoid fragment service over the archive directory.
func serve(t *testing.T, store string) *httptest.Server {
	t.Helper()
	st, err := storage.NewDirStore(store)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(context.Background(), st, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs
}

// captureStdout runs fn with os.Stdout sent to a file and returns what fn
// printed along with its error.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

func TestPackInfoVerifyRetrieveWorkflow(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.f64")
	writeField(t, in, 5000)
	ref := packFields(t, filepath.Join(dir, "archives"), "x", 5000, in)

	if err := cmdInfo([]string{ref}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{ref, in}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "recon")
	if err := cmdRetrieve([]string{"-qoi", "sqrt(x^2+1)", "-tol", "1e-4", "-out", out, ref}); err != nil {
		t.Fatal(err)
	}
	rec, err := readF64(out + "_x.f64")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 5000 {
		t.Fatalf("reconstruction has %d values", len(rec))
	}
	// The retrieved QoI sqrt(x²+1) must be within tolerance pointwise.
	orig, _ := readF64(in)
	for i := range orig {
		qo := math.Sqrt(orig[i]*orig[i] + 1)
		qr := math.Sqrt(rec[i]*rec[i] + 1)
		if math.Abs(qo-qr) > 1e-4 {
			t.Fatalf("QoI error %g at %d exceeds tolerance", math.Abs(qo-qr), i)
		}
	}
}

// TestPackAllMethods packs and verifies one field under each method. The
// field's name is one a QoI formula cannot name, which verify must still
// check.
func TestPackAllMethods(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.f64")
	writeField(t, in, 800)
	for _, m := range []string{"psz3", "psz3-delta", "pmgard", "pmgard-hb"} {
		store := filepath.Join(dir, m)
		if err := cmdPack([]string{"-dims", "800", "-method", m, "-dataset", "demo", "-fields", "2d.exp", "-store", store, in}); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := cmdVerify([]string{store + "/demo", in}); err != nil {
			t.Fatalf("%s verify: %v", m, err)
		}
	}
}

// TestRetrieveCertifiesGEVelocity is the total velocity of GE's three
// velocity fields, retrieved from a packed archive at three tolerances.
// The archive carries each field's range and zero mask, so every
// tolerance certifies; a bare progressive file without them ran out of
// fragments at all three.
func TestRetrieveCertifiesGEVelocity(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.GE("ge", 200, 320, 1)
	n := ds.NumElements()
	inputs := make([]string, 3)
	for i, name := range []string{"vx", "vy", "vz"} {
		inputs[i] = filepath.Join(dir, name+".f64")
		if err := writeF64(inputs[i], ds.Fields[i]); err != nil {
			t.Fatal(err)
		}
	}
	ref := packFields(t, filepath.Join(dir, "archives"), "Vx,Vy,Vz", n, inputs...)
	for _, tol := range []string{"1e-1", "1e-3", "1e-5"} {
		out := filepath.Join(dir, "vtot"+tol)
		stdout, err := captureStdout(t, func() error {
			return cmdRetrieve([]string{"-qoi", "sqrt(Vx^2+Vy^2+Vz^2)", "-tol", tol, "-out", out, ref})
		})
		if err != nil {
			t.Fatalf("tol %s: %v", tol, err)
		}
		want, _ := strconv.ParseFloat(tol, 64)
		var certified float64
		if _, err := fmt.Sscanf(stdout, "certified max QoI error: %g", &certified); err != nil {
			t.Fatalf("tol %s: no certified error in %q: %v", tol, stdout, err)
		}
		if !(certified <= want) {
			t.Fatalf("tol %s: certified %g", tol, certified)
		}
		rec := make([][]float64, 3)
		for i, name := range []string{"Vx", "Vy", "Vz"} {
			if rec[i], err = readF64(out + "_" + name + ".f64"); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < n; j++ {
			vo := math.Sqrt(ds.Fields[0][j]*ds.Fields[0][j] + ds.Fields[1][j]*ds.Fields[1][j] + ds.Fields[2][j]*ds.Fields[2][j])
			vr := math.Sqrt(rec[0][j]*rec[0][j] + rec[1][j]*rec[1][j] + rec[2][j]*rec[2][j])
			if e := math.Abs(vo - vr); e > certified {
				t.Fatalf("tol %s: VTOT error %g at %d exceeds certified %g", tol, e, j, certified)
			}
		}
	}
}

// TestInfoVerifyReferenceGrammar runs info and verify on the same archive
// through an http:// reference to a fragment service and a file://
// reference to its directory.
func TestInfoVerifyReferenceGrammar(t *testing.T) {
	dir := t.TempDir()
	inA := filepath.Join(dir, "a.f64")
	inB := filepath.Join(dir, "b.f64")
	writeField(t, inA, 1500)
	writeField(t, inB, 1500)
	store := filepath.Join(dir, "archives")
	packFields(t, store, "A,B", 1500, inA, inB)
	hs := serve(t, store)
	for _, ref := range []string{hs.URL + "/demo", "file://" + store + "/demo"} {
		stdout, err := captureStdout(t, func() error { return cmdInfo([]string{ref}) })
		if err != nil {
			t.Fatalf("info %s: %v", ref, err)
		}
		for _, want := range []string{"fields:     A,B", "dims:       1500 (1500 values)", "stored:"} {
			if !strings.Contains(stdout, want) {
				t.Errorf("info %s: no %q in %q", ref, want, stdout)
			}
		}
		if err := cmdVerify([]string{ref, inA, inB}); err != nil {
			t.Fatalf("verify %s: %v", ref, err)
		}
	}
}

// TestSubcommandFlagParseErrors: every subcommand's flag set uses
// ContinueOnError, so an unknown or malformed flag comes back as an error
// (testable, scriptable exit status) instead of exiting the process from
// inside the flag package — and -h is help, not a failure.
func TestSubcommandFlagParseErrors(t *testing.T) {
	cmds := map[string]func([]string) error{
		"pack":     cmdPack,
		"retrieve": cmdRetrieve,
		"info":     cmdInfo,
		"verify":   cmdVerify,
	}
	for name, cmd := range cmds {
		if err := cmd([]string{"-no-such-flag"}); err == nil {
			t.Errorf("%s: unknown flag accepted", name)
		}
		if err := cmd([]string{"-h"}); err != nil {
			t.Errorf("%s: -h returned %v, want nil", name, err)
		}
	}
	// A malformed value for a typed flag is a parse error, not an exit.
	if err := cmdRetrieve([]string{"-tol", "not-a-number"}); err == nil {
		t.Error("malformed -tol accepted")
	}
	if err := cmdPack([]string{"-workers", "x"}); err == nil {
		t.Error("malformed -workers accepted")
	}
}

// TestPackWorkersIdenticalOutput drives pack's streaming ingest at both
// pool settings and checks the archive directories are byte-identical —
// the CLI surface of the bit-identity guarantee.
func TestPackWorkersIdenticalOutput(t *testing.T) {
	dir := t.TempDir()
	inA := filepath.Join(dir, "a.f64")
	inB := filepath.Join(dir, "b.f64")
	writeField(t, inA, 1200)
	writeField(t, inB, 1200)
	storeSeq := filepath.Join(dir, "seq")
	storePar := filepath.Join(dir, "par")
	if err := cmdPack([]string{"-dims", "1200", "-dataset", "demo", "-fields", "A,B",
		"-store", storeSeq, "-workers", "1", inA, inB}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPack([]string{"-dims", "1200", "-dataset", "demo", "-fields", "A,B",
		"-store", storePar, "-workers", "8", inA, inB}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(storeSeq)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 { // manifest + two variable blobs
		t.Fatalf("%d store entries", len(ents))
	}
	for _, e := range ents {
		a, err := os.ReadFile(filepath.Join(storeSeq, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(storePar, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between -workers 1 and 8", e.Name())
		}
	}
	// Wrong-size input is caught per file with the offending path named.
	short := filepath.Join(dir, "short.f64")
	writeField(t, short, 600)
	err = cmdPack([]string{"-dims", "1200", "-dataset", "bad", "-fields", "S",
		"-store", filepath.Join(dir, "bad"), short})
	if err == nil || !strings.Contains(err.Error(), "short.f64") {
		t.Fatalf("size mismatch error = %v", err)
	}
}

func TestCommandValidation(t *testing.T) {
	if err := cmdRetrieve([]string{"-qoi", "x", "-tol", "1e-3"}); err == nil {
		t.Error("retrieve without a reference accepted")
	}
	if err := cmdRetrieve([]string{"-qoi", "x", "-tol", "1e-3", "a/ds", "b/ds"}); err == nil {
		t.Error("retrieve with two references accepted")
	}
	if err := cmdInfo([]string{}); err == nil {
		t.Error("info without a reference accepted")
	}
	if err := cmdVerify([]string{"one"}); err == nil {
		t.Error("verify with one arg accepted")
	}
}

// TestRetrieveTimeoutFlag drives the context plumbing end to end from the
// CLI: a generous -timeout succeeds, and against a stalled fragment
// service the deadline aborts the retrieval with DeadlineExceeded.
func TestRetrieveTimeoutFlag(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.f64")
	writeField(t, in, 2000)
	ref := packFields(t, filepath.Join(dir, "archives"), "x", 2000, in)
	if err := cmdRetrieve([]string{"-timeout", "1m", "-progress",
		"-qoi", "sqrt(x^2+1)", "-tol", "1e-3", ref}); err != nil {
		t.Fatalf("generous timeout failed: %v", err)
	}

	// A server that never answers: the handler parks until the client's
	// deadline tears the request down.
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer stalled.Close()
	err := cmdRetrieve([]string{"-qoi", "x", "-tol", "1e-3", "-timeout", "100ms", stalled.URL + "/ge"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from stalled remote, got %v", err)
	}
}

// TestVerifyDetectsMismatchedOriginal: verify rejects an original of the
// wrong length, a wrong number of originals, and an original of the right
// length whose values the archive does not hold.
func TestVerifyDetectsMismatchedOriginal(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.f64")
	vals := writeField(t, in, 500)
	ref := packFields(t, filepath.Join(dir, "archives"), "x", 500, in)
	short := filepath.Join(dir, "short.f64")
	writeField(t, short, 400)
	if err := cmdVerify([]string{ref, short}); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if err := cmdVerify([]string{ref, in, in}); err == nil {
		t.Fatal("two originals for one field accepted")
	}
	shifted := filepath.Join(dir, "shifted.f64")
	for i := range vals {
		vals[i] += 100
	}
	if err := writeF64(shifted, vals); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{ref, shifted}); err == nil || !strings.Contains(err.Error(), "bound violations") {
		t.Fatalf("shifted original: err = %v, want bound violations", err)
	}
}

// TestInfoRejectsGarbage: a directory holding no manifest, and one whose
// manifest is not an archive, are both refused.
func TestInfoRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := cmdInfo([]string{dir + "/demo"}); err == nil {
		t.Fatal("directory without a manifest accepted")
	}
	raw := make([]byte, 64)
	binary.LittleEndian.PutUint32(raw, 0xffffffff)
	if err := os.WriteFile(filepath.Join(dir, "demo.manifest"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{dir + "/demo"}); err == nil {
		t.Fatal("garbage manifest accepted")
	}
}

func TestPackAndRemoteRetrieveWorkflow(t *testing.T) {
	dir := t.TempDir()
	inA := filepath.Join(dir, "a.f64")
	inB := filepath.Join(dir, "b.f64")
	writeField(t, inA, 900)
	writeField(t, inB, 900)
	store := filepath.Join(dir, "archives")
	packFields(t, store, "A,B", 900, inA, inB)
	hs := serve(t, store)

	out := filepath.Join(dir, "remote")
	err := cmdRetrieve([]string{"-qoi", "sqrt(A^2+B^2)", "-tol", "1e-3", "-out", out, hs.URL + "/demo"})
	if err != nil {
		t.Fatal(err)
	}
	recA, err := readF64(out + "_A.f64")
	if err != nil {
		t.Fatal(err)
	}
	recB, err := readF64(out + "_B.f64")
	if err != nil {
		t.Fatal(err)
	}
	origA, _ := readF64(inA)
	origB, _ := readF64(inB)
	for i := range origA {
		qo := math.Sqrt(origA[i]*origA[i] + origB[i]*origB[i])
		qr := math.Sqrt(recA[i]*recA[i] + recB[i]*recB[i])
		if math.Abs(qo-qr) > 1e-3 {
			t.Fatalf("remote QoI error %g at %d exceeds tolerance", math.Abs(qo-qr), i)
		}
	}

	// Malformed invocations are rejected.
	if err := cmdRetrieve([]string{"-qoi", "A", "-tol", "1e-3", hs.URL}); err == nil {
		t.Fatal("remote retrieve without a dataset accepted")
	}
	if err := cmdRetrieve([]string{"-qoi", "A", "-tol", "1e-3", hs.URL + "/demo", "x.pq"}); err == nil {
		t.Fatal("retrieve with two references accepted")
	}
	if err := cmdPack([]string{"-dims", "900", "-fields", "A", "-store", store, inA}); err == nil {
		t.Fatal("pack without -dataset accepted")
	}
}

// TestRetrieveTraceFlag runs -trace against a local archive and a fragment
// service and checks the emitted files are valid Chrome trace_event JSON
// with the expected phase categories.
func TestRetrieveTraceFlag(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.f64")
	writeField(t, in, 2000)
	store := filepath.Join(dir, "archives")
	ref := packFields(t, store, "x", 2000, in)

	parse := func(path string) map[string]bool {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				Cat  string `json:"cat"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: not valid trace JSON: %v", path, err)
		}
		cats := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				cats[ev.Cat] = true
			}
		}
		return cats
	}

	local := filepath.Join(dir, "local.json")
	if err := cmdRetrieve([]string{"-qoi", "x^2", "-tol", "1e-3", "-trace", local, ref}); err != nil {
		t.Fatal(err)
	}
	cats := parse(local)
	for _, want := range []string{"do", "decode", "commit", "estimate"} {
		if !cats[want] {
			t.Errorf("local trace missing %q spans (have %v)", want, cats)
		}
	}

	hs := serve(t, store)
	remote := filepath.Join(dir, "remote.json")
	if err := cmdRetrieve([]string{"-qoi", "x^2", "-tol", "1e-3", "-trace", remote, hs.URL + "/demo"}); err != nil {
		t.Fatal(err)
	}
	cats = parse(remote)
	for _, want := range []string{"do", "plan", "fetch", "http", "decode", "estimate"} {
		if !cats[want] {
			t.Errorf("remote trace missing %q spans (have %v)", want, cats)
		}
	}
}
