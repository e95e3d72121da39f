package encoding_test

import (
	"bytes"
	"compress/flate"
	"testing"

	"progqoi/internal/bitplane"
	"progqoi/internal/datagen"
	"progqoi/internal/encoding"
	"progqoi/internal/grid"
	"progqoi/internal/mgard"
	"progqoi/internal/progressive"
)

// TestPredictorCorpusZeroLoss runs every tagged fragment the packers write
// — bit-plane signs and planes under both PMGARD bases, the lossless tail
// under both snapshot methods — for every datagen generator, and checks
// each against level-6 DEFLATE from a writer outside the package's pools:
// the stored fragment is exactly what the attempt-always rule would store,
// and every fragment the predictor skips is one that DEFLATE cannot shrink.
func TestPredictorCorpusZeroLoss(t *testing.T) {
	datasets := []*datagen.Dataset{
		datagen.GE("GE", 60, 320, 1),
		datagen.Hurricane(8, 24, 24, 1),
		datagen.NYX(24, 24, 24, 1),
		datagen.S3D(12, 16, 10, 1),
	}
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	deflate := func(data []byte) []byte {
		buf.Reset()
		fw.Reset(&buf)
		if _, err := fw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var frags, rawEnding, skipped, short int
	var rawBytes, skippedBytes int
	check := func(name string, frag []byte) {
		t.Helper()
		var raw []byte
		switch frag[0] {
		case 0:
			raw = frag[1:]
		case 1:
			var err error
			if raw, err = encoding.Inflate(frag[1:], 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		want := append([]byte{0}, raw...)
		if c := deflate(raw); len(c) < len(raw) {
			want = append([]byte{1}, c...)
		}
		if !bytes.Equal(frag, want) {
			t.Fatalf("%s: a %d-byte fragment differs from the attempt-always rule", name, len(raw))
		}
		frags++
		if frag[0] == 0 {
			rawEnding++
			rawBytes += len(raw)
		}
		if encoding.Incompressible(raw) {
			if frag[0] != 0 {
				t.Fatalf("%s: the predictor skips a %d-byte fragment DEFLATE shrinks", name, len(raw))
			}
			skipped++
			skippedBytes += len(raw)
			if len(raw) < 10 {
				short++
			}
		}
	}
	for _, ds := range datasets {
		g, err := grid.New(ds.Dims...)
		if err != nil {
			t.Fatal(err)
		}
		for fi, field := range ds.Fields {
			name := ds.Name + "/" + ds.FieldNames[fi]
			for _, basis := range []mgard.Basis{mgard.Hierarchical, mgard.Orthogonal} {
				dec, err := mgard.Decompose(field, g, basis)
				if err != nil {
					t.Fatal(err)
				}
				groups := make([][]float64, dec.NumGroups())
				for gi := range groups {
					groups[gi] = dec.Group(gi)
				}
				blocks, err := bitplane.EncodeAll(groups, bitplane.DefaultPlanes, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, blk := range blocks {
					if blk.Signs != nil {
						check(name+" signs", blk.Signs)
					}
					for _, p := range blk.Planes {
						check(name+" plane", p)
					}
				}
			}
			for _, m := range []progressive.Method{progressive.PSZ3, progressive.PSZ3Delta} {
				r, err := progressive.Refactor(field, ds.Dims, progressive.Options{Method: m, LosslessTail: true, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				check(name+" "+m.String()+" tail", r.Fragments[len(r.Fragments)-1])
			}
		}
	}
	if skipped == short {
		t.Fatal("the byte-statistics test skipped nothing: the corpus no longer exercises it")
	}
	t.Logf("%d fragments, %d stored raw (%d B); %d of those (%d B) skipped the DEFLATE attempt, %d of them under 10 bytes",
		frags, rawEnding, rawBytes, skipped, skippedBytes, short)
}
