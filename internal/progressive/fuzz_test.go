package progressive

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"progqoi/internal/encoding"
)

// fuzzRef is the PMGARD-HB representation FuzzAdvancePlanes corrupts, and
// clean the field a reader recomposes from all of its fragments.
var fuzzRef = sync.OnceValues(func() (*Refactored, []float64) {
	dims := []int{17, 9}
	ref, err := Refactor(smoothField(dims), dims, Options{Method: PMGARDHB})
	if err != nil {
		panic(err)
	}
	rd, err := NewReader(ref, nil)
	if err != nil {
		panic(err)
	}
	if _, err := rd.Advance(context.Background(), 0); err != nil {
		panic(err)
	}
	clean, _ := rd.Data()
	return ref, clean
})

// FuzzAdvancePlanes replaces fragment frag (mod the fragment count) of a
// real PMGARD-HB representation with payload, then ingests every fragment
// and rebuilds. The oracle:
//
//   - nothing panics;
//   - Advance returns nil, ErrShortFragment or encoding.ErrCorrupt;
//   - when it returns nil, every value Data returns is finite;
//   - when it fails, restoring the original fragment and advancing again
//     resumes where it stopped and rebuilds the clean field bit for bit.
//
// The committed corpus (testdata/fuzz) seeds it with real fragments: a
// plane-0 fragment carrying the sign section, a later plane, and
// truncated, mistagged and zero-length variants.
func FuzzAdvancePlanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, frag uint16, payload []byte) {
		ref, clean := fuzzRef()
		bad := *ref
		bad.Fragments = slices.Clone(ref.Fragments)
		i := int(frag) % len(bad.Fragments)
		bad.Fragments[i] = payload
		rd, err := NewReader(&bad, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = rd.Advance(context.Background(), 0)
		if err == nil {
			data, _ := rd.Data()
			for j, v := range data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("fragment %d of %d bytes accepted, point %d reads %g", i, len(payload), j, v)
				}
			}
			return
		}
		if !errors.Is(err, ErrShortFragment) && !errors.Is(err, encoding.ErrCorrupt) {
			t.Fatalf("fragment %d of %d bytes: %v is neither ErrShortFragment nor ErrCorrupt", i, len(payload), err)
		}
		bad.Fragments[i] = ref.Fragments[i]
		if _, err := rd.Advance(context.Background(), 0); err != nil {
			t.Fatalf("fragment %d restored: %v", i, err)
		}
		data, _ := rd.Data()
		for j := range clean {
			if math.Float64bits(data[j]) != math.Float64bits(clean[j]) {
				t.Fatalf("fragment %d restored: point %d reads %g, a clean reader %g", i, j, data[j], clean[j])
			}
		}
	})
}
