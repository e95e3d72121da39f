package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/encoding"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
)

func testVars(t *testing.T) ([]*core.Variable, *datagen.Dataset) {
	t.Helper()
	ds := datagen.GE("GE-arch", 4, 128, 11)
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vars, ds
}

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Get(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := s.Put(context.Background(), "a", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(context.Background(), "a")
	if err != nil || len(v) != 2 {
		t.Fatalf("get: %v %v", v, err)
	}
	// Returned slice must be a copy.
	v[0] = 99
	v2, _ := s.Get(context.Background(), "a")
	if v2[0] != 1 {
		t.Fatal("MemStore leaked internal buffer")
	}
	keys, _ := s.Keys(context.Background())
	if len(keys) != 1 || keys[0] != "a" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestDirStoreBasics(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(context.Background(), "block-1.var", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(context.Background(), "block-1.var")
	if err != nil || string(v) != "hello" {
		t.Fatalf("get: %q %v", v, err)
	}
	if _, err := s.Get(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	keys, err := s.Keys(context.Background())
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys: %v %v", keys, err)
	}
}

func TestDirStoreRejectsUnsafeKeys(t *testing.T) {
	s, _ := NewDirStore(t.TempDir())
	for _, key := range []string{"", "../evil", "a/b", ".hidden", "sp ace", string(make([]byte, 300))} {
		if err := s.Put(context.Background(), key, []byte("x")); err == nil {
			t.Errorf("key %q accepted", key)
		}
		if _, err := s.Get(context.Background(), key); err == nil {
			t.Errorf("get key %q accepted", key)
		}
	}
}

func TestArchiveRoundTripMem(t *testing.T) {
	vars, ds := testVars(t)
	st := NewMemStore()
	if err := WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(context.Background(), st, "ge")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vars) {
		t.Fatalf("got %d vars", len(got))
	}
	for i := range vars {
		if got[i].Name != vars[i].Name || got[i].Range != vars[i].Range {
			t.Fatalf("var %d metadata mismatch", i)
		}
		if (got[i].ZeroMask == nil) != (vars[i].ZeroMask == nil) {
			t.Fatalf("var %d mask presence mismatch", i)
		}
		for j := range vars[i].ZeroMask {
			if got[i].ZeroMask[j] != vars[i].ZeroMask[j] {
				t.Fatalf("var %d mask differs at %d", i, j)
			}
		}
	}
	// The reopened archive must drive a full QoI retrieval identically.
	rt, err := core.NewRetriever(got, core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vtot := []qoi.QoI{ds.QoIs[0]}
	ranges := core.QoIRanges(vtot, ds.Fields)
	res, err := rt.Retrieve(context.Background(), core.Request{Targets: []core.Target{
		{QoI: vtot[0], Tolerance: 1e-4, Relative: true, Range: ranges[0]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	actual := core.ActualQoIErrors(vtot, ds.Fields, res.Data)
	if actual[0] > res.EstErrors[0] {
		t.Fatalf("actual %g > est %g after archive round trip", actual[0], res.EstErrors[0])
	}
}

func TestArchiveRoundTripDir(t *testing.T) {
	vars, _ := testVars(t)
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(context.Background(), st, "ge")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d vars", len(got))
	}
}

func TestArchiveDetectsCorruption(t *testing.T) {
	vars, _ := testVars(t)
	st := NewMemStore()
	if err := WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in a variable blob: the CRC must catch it.
	key := "ge.Pressure.var"
	blob, err := st.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := st.Put(context.Background(), key, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArchive(context.Background(), st, "ge"); err == nil {
		t.Fatal("corruption not detected")
	}
	// Corrupt manifest too.
	st2 := NewMemStore()
	_ = WriteArchive(context.Background(), st2, "ge", vars)
	m, _ := st2.Get(context.Background(), "ge.manifest")
	m[3] ^= 0xff
	_ = st2.Put(context.Background(), "ge.manifest", m)
	if _, err := ReadArchive(context.Background(), st2, "ge"); err == nil {
		t.Fatal("manifest corruption not detected")
	}
}

func TestArchiveMissingVariableBlob(t *testing.T) {
	vars, _ := testVars(t)
	st := NewMemStore()
	if err := WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	// Simulate a lost object by re-creating the store without one blob.
	st2 := NewMemStore()
	keys, _ := st.Keys(context.Background())
	for _, k := range keys {
		if k == "ge.Density.var" {
			continue
		}
		v, _ := st.Get(context.Background(), k)
		_ = st2.Put(context.Background(), k, v)
	}
	if _, err := ReadArchive(context.Background(), st2, "ge"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestMaskPackUnpack(t *testing.T) {
	if out := appendMask(nil, nil); out != nil {
		t.Fatal("nil mask should pack to nil")
	}
	mask := []bool{true, false, true, true, false, false, false, true, true}
	packed := appendMask(nil, mask)
	got, err := unpackMask(packed, len(mask))
	if err != nil {
		t.Fatal(err)
	}
	for i := range mask {
		if got[i] != mask[i] {
			t.Fatalf("mask differs at %d", i)
		}
	}
	if _, err := unpackMask(packed, len(mask)+1); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if _, err := unpackMask([]byte{1, 2}, 9); err == nil {
		t.Fatal("short mask not detected")
	}
}

func TestRangePreservedThroughArchive(t *testing.T) {
	vars, _ := testVars(t)
	// Ranges should be finite, positive physical values.
	for _, v := range vars {
		if !(v.Range > 0) || math.IsInf(v.Range, 0) {
			t.Fatalf("%s range %g", v.Name, v.Range)
		}
	}
}

func TestGetRange(t *testing.T) {
	mem := NewMemStore()
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": mem, "dir": dir} {
		t.Run(name, func(t *testing.T) {
			if err := s.Put(context.Background(), "blob", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetRange(context.Background(), "blob", 3, 4)
			if err != nil || string(got) != "3456" {
				t.Fatalf("GetRange = %q, %v", got, err)
			}
			if _, err := s.GetRange(context.Background(), "blob", 8, 4); err == nil {
				t.Fatal("read past end did not fail")
			}
			if _, err := s.GetRange(context.Background(), "blob", -1, 2); err == nil {
				t.Fatal("negative offset accepted")
			}
			if _, err := s.GetRange(context.Background(), "missing", 0, 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing key: want ErrNotFound, got %v", err)
			}
		})
	}
	// MemStore ranges must be copies, like Get.
	got, err := mem.GetRange(context.Background(), "blob", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'X'
	again, _ := mem.GetRange(context.Background(), "blob", 0, 2)
	if again[0] != '0' {
		t.Fatal("MemStore.GetRange leaked internal buffer")
	}
}

func TestVariableFragmentRanges(t *testing.T) {
	vars, _ := testVars(t)
	st := NewMemStore()
	if err := WriteArchive(context.Background(), st, "ge", vars); err != nil {
		t.Fatal(err)
	}
	got, ranges, err := ReadArchiveRanged(context.Background(), st, "ge")
	if err != nil {
		t.Fatal(err)
	}
	for vi, v := range vars {
		raw, err := st.Get(context.Background(), VarKey("ge", v.Name))
		if err != nil {
			t.Fatal(err)
		}
		if len(ranges[vi]) != len(v.Ref.Fragments) {
			t.Fatalf("%s: %d ranges for %d fragments", v.Name, len(ranges[vi]), len(v.Ref.Fragments))
		}
		for fi, rng := range ranges[vi] {
			want := v.Ref.Fragments[fi]
			if rng.Len != int64(len(want)) {
				t.Fatalf("%s/%d: range length %d, fragment %d", v.Name, fi, rng.Len, len(want))
			}
			if !bytes.Equal(raw[rng.Off:rng.Off+rng.Len], want) {
				t.Fatalf("%s/%d: range payload differs from fragment", v.Name, fi)
			}
			// The one pass returns the payloads it located, too.
			if !bytes.Equal(got[vi].Ref.Fragments[fi], want) {
				t.Fatalf("%s/%d: returned payload differs from fragment", v.Name, fi)
			}
		}
	}
	// Corruption must be caught by the frame CRC before any walking.
	key := VarKey("ge", vars[0].Name)
	raw, _ := st.Get(context.Background(), key)
	raw[len(raw)/2] ^= 0xff
	if err := st.Put(context.Background(), key, raw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadArchiveRanged(context.Background(), st, "ge"); !errors.Is(err, encoding.ErrCorrupt) {
		t.Fatalf("corrupt blob: want ErrCorrupt, got %v", err)
	}
}

// FuzzDecodeVariable: DecodeVariable either refuses a blob with an error
// wrapping encoding.ErrCorrupt, or returns a variable that EncodeVariable
// writes back byte for byte, so the decoder accepts exactly the layouts
// the writer produces. The committed corpus (testdata/fuzz) seeds it with
// real PMGARD-HB and PSZ3 variable blobs, zero mask included.
func FuzzDecodeVariable(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		v, err := DecodeVariable(blob)
		if err != nil {
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("DecodeVariable: %v is not ErrCorrupt", err)
			}
			return
		}
		if back := EncodeVariable(v); !bytes.Equal(back, blob) {
			t.Fatalf("%d decoded bytes re-encode to %d different ones", len(blob), len(back))
		}
	})
}

// TestReadArchiveRangedForgedHeaders feeds manifests whose variable count
// promises more variables than the bytes after it can hold: each
// variable takes at least its 4-byte name section. Each must be refused
// as corrupt before ReadArchiveRanged allocates for the count or reads a
// variable blob (65,536 variables once cost 2.1 MB for a 12-byte body).
func TestReadArchiveRangedForgedHeaders(t *testing.T) {
	forged := func(n uint32, rest ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(bytes.Clone(archiveMagic), n)
		return encoding.AppendCRC(append(b, rest...))
	}
	cases := map[string][]byte{
		"max count, no variables":  forged(1 << 16),
		"two counted, one section": forged(2, 1, 0, 0, 0, 'v'),
	}
	for name, manifest := range cases {
		st := NewMemStore()
		if err := st.Put(context.Background(), "ds.manifest", manifest); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadArchiveRanged(context.Background(), st, "ds")
		runtime.ReadMemStats(&after)
		if !errors.Is(err, encoding.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
			t.Errorf("%s: allocated %d bytes", name, d)
		}
	}
}

// fuzzArchiveStore serves one manifest under every key ending in
// ".manifest" and one variable blob under every other key, so whatever
// variable names a fuzzed manifest holds, each reads the fuzzed blob.
type fuzzArchiveStore struct{ manifest, blob []byte }

func (s fuzzArchiveStore) Put(context.Context, string, []byte) error { return ErrInvalidKey }

func (s fuzzArchiveStore) Get(_ context.Context, key string) ([]byte, error) {
	if strings.HasSuffix(key, ".manifest") {
		return s.manifest, nil
	}
	return s.blob, nil
}

func (s fuzzArchiveStore) GetRange(context.Context, string, int64, int64) ([]byte, error) {
	return nil, ErrInvalidKey
}

func (s fuzzArchiveStore) Keys(context.Context) ([]string, error) { return nil, nil }

// FuzzReadArchiveRanged: the archive open path over a manifest and a
// variable blob, each the fuzzed bytes with a valid CRC appended so a
// mutation reaches the parsers instead of dying at the checksum.
// ReadArchiveRanged either refuses them with an error wrapping
// encoding.ErrCorrupt, or returns one range per fragment of every
// variable, each inside the blob and holding exactly that fragment's
// payload; it never panics. The committed corpus (testdata/fuzz) seeds
// it with real one-variable PMGARD-HB and PSZ3 archives, zero mask
// included, CRC trailers removed.
func FuzzReadArchiveRanged(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest, blob []byte) {
		st := fuzzArchiveStore{
			manifest: encoding.AppendCRC(bytes.Clone(manifest)),
			blob:     encoding.AppendCRC(bytes.Clone(blob)),
		}
		vars, ranges, err := ReadArchiveRanged(context.Background(), st, "ds")
		if err != nil {
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("ReadArchiveRanged: %v is not ErrCorrupt", err)
			}
			return
		}
		if len(ranges) != len(vars) {
			t.Fatalf("%d range lists for %d variables", len(ranges), len(vars))
		}
		for i, v := range vars {
			if len(ranges[i]) != len(v.Ref.Fragments) {
				t.Fatalf("%s: %d ranges for %d fragments", v.Name, len(ranges[i]), len(v.Ref.Fragments))
			}
			for j, r := range ranges[i] {
				if r.Off < 0 || r.Len < 0 || r.Off+r.Len > int64(len(blob)) {
					t.Fatalf("%s fragment %d: range [%d, +%d) outside the %d-byte blob", v.Name, j, r.Off, r.Len, len(blob))
				}
				if !bytes.Equal(blob[r.Off:r.Off+r.Len], v.Ref.Fragments[j]) {
					t.Fatalf("%s fragment %d: range does not hold the fragment's payload", v.Name, j)
				}
			}
		}
	})
}
