package progressive

import (
	"context"
	"testing"
)

// TestDataRebuildDoesNotAllocate is the commit path's allocation contract:
// once a reader has served Data, the rebuild after a further Advance
// (decoder values → shell groups → inverse transform) reuses the reader's
// buffers and allocates nothing, under both PMGARD bases.
func TestDataRebuildDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under -race")
	}
	dims := []int{33, 17, 9}
	for _, m := range []Method{PMGARD, PMGARDHB} {
		ref, err := Refactor(smoothField(dims), dims, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		var first []float64
		for _, target := range []float64{1, 1e-3} {
			if _, err := rd.Advance(context.Background(), target); err != nil {
				t.Fatal(err)
			}
			data, err := rd.Data()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = data
			} else if &data[0] != &first[0] {
				t.Fatalf("%v: the rebuild after a further Advance moved the reconstruction", m)
			}
		}
		if n := testing.AllocsPerRun(5, func() {
			rd.dirty = true // what ingesting a fragment does
			if _, err := rd.Data(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%v: a Data rebuild allocates %v times", m, n)
		}
	}
}
