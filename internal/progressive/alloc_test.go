package progressive

import (
	"context"
	"fmt"
	"math"
	"runtime"
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

// TestAdvanceReusesPlaneBitmaps: a reader inflates each DEFLATE plane
// bitmap into a free buffer of its group, and an Advance frees its buffers
// for the next one, keeping at most keptBitmaps per group. Over a ladder of
// targets such a reader allocates less than one whose free lists are
// emptied after every Advance, by at least four bitmaps of the finest
// group; after one deep Advance, no group keeps more than keptBitmaps
// buffers.
func TestAdvanceReusesPlaneBitmaps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under -race")
	}
	dims := []int{129, 129}
	ref, err := Refactor(smoothField(dims), dims, Options{Method: PMGARDHB})
	if err != nil {
		t.Fatal(err)
	}
	checkFree := func(rd *Reader, when string) {
		for g, free := range rd.bitmaps {
			if len(free) > keptBitmaps {
				t.Fatalf("%s: group %d keeps %d bitmap buffers, at most %d", when, g, len(free), keptBitmaps)
			}
			for _, b := range free {
				if len(b) != (rd.blocks[g].N+7)/8 {
					t.Fatalf("%s: group %d: a %d-byte bitmap buffer, want %d", when, g, len(b), (rd.blocks[g].N+7)/8)
				}
			}
		}
	}
	ladder := func(keep bool) uint64 {
		least := uint64(math.MaxUint64)
		for run := 0; run < 3; run++ {
			rd, err := NewReader(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, target := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
				if _, err := rd.Advance(context.Background(), target); err != nil {
					t.Fatal(err)
				}
				checkFree(rd, fmt.Sprintf("target %g", target))
				if !keep {
					clear(rd.bitmaps)
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	reused, fresh := ladder(true), ladder(false)
	want := 4 * uint64(ref.Blocks[len(ref.Blocks)-1].N+7) / 8
	if reused+want > fresh {
		t.Fatalf("the ladder allocates %d B reusing bitmaps and %d B without, want a saving of at least %d B", reused, fresh, want)
	}
	t.Logf("the ladder allocates %d B reusing bitmaps and %d B without", reused, fresh)

	rd, err := NewReader(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Advance(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	checkFree(rd, "one deep Advance")
}
