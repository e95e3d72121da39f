package progressive

import (
	"context"
	"fmt"
	"testing"
)

// TestDataRebuildDoesNotAllocate is the commit path's allocation contract:
// once a reader has served Data, the rebuild after a further Advance
// (decoder values → recompose in place → mask) reuses the reader's buffers
// and allocates nothing, under both PMGARD bases and PSZ3-Delta, with and
// without a zero mask.
func TestDataRebuildDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under -race")
	}
	dims := []int{33, 17, 9}
	field := smoothField(dims)
	mask := make([]bool, len(field))
	for i := range mask {
		mask[i] = i%7 == 3
	}
	for _, m := range []Method{PMGARD, PMGARDHB, PSZ3Delta} {
		ref, err := Refactor(field, dims, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, mask := range [][]bool{nil, mask} {
			name := fmt.Sprintf("%v masked=%v", m, mask != nil)
			rd, err := NewReader(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := rd.SetMask(mask); err != nil {
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
				for i, z := range mask {
					if z && data[i] != 0 {
						t.Fatalf("%s: masked point %d reads %g", name, i, data[i])
					}
				}
				if first == nil {
					first = data
				} else if &data[0] != &first[0] {
					t.Fatalf("%s: the rebuild after a further Advance moved the reconstruction", name)
				}
			}
			if n := testing.AllocsPerRun(5, func() {
				rd.dirty = true // what ingesting a fragment does
				if _, err := rd.Data(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("%s: a Data rebuild allocates %v times", name, n)
			}
		}
	}
}
