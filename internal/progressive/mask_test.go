package progressive

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestMaskZeroesOnlyMaskedPoints: under every method, a masked reader's
// Data is an unmasked reader's Data with the masked points zeroed, bit for
// bit, at every rung of a tolerance ladder. PSZ3 masks each snapshot as it
// lands, PMGARD each recompose, and PSZ3-Delta a copy, so its running sum
// stays unmasked.
func TestMaskZeroesOnlyMaskedPoints(t *testing.T) {
	dims := []int{33, 17, 9}
	field := smoothField(dims)
	mask := make([]bool, len(field))
	for i := range mask {
		mask[i] = i%5 == 1
	}
	for _, m := range []Method{PMGARD, PMGARDHB, PSZ3, PSZ3Delta} {
		ref, err := Refactor(field, dims, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		masked, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := masked.SetMask(mask); err != nil {
			t.Fatal(err)
		}
		for _, target := range []float64{1, 1e-2, 1e-4, 1e-6} {
			for _, rd := range []*Reader{plain, masked} {
				if _, err := rd.Advance(context.Background(), target); err != nil {
					t.Fatal(err)
				}
			}
			want, _ := plain.Data()
			got, _ := masked.Data()
			for i := range want {
				w := want[i]
				if mask[i] {
					w = 0
				}
				if math.Float64bits(got[i]) != math.Float64bits(w) {
					t.Fatalf("%v at %g: point %d reads %g, want %g", m, target, i, got[i], w)
				}
			}
		}
		if err := masked.SetMask(nil); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%v: SetMask after Advance = %v, want ErrBadRequest", m, err)
		}
	}
	rd, err := NewReader(&Refactored{Method: PSZ3, Dims: dims}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.SetMask(mask[:10]); !errors.Is(err, ErrBadRequest) {
		t.Errorf("SetMask of the wrong length = %v, want ErrBadRequest", err)
	}
}
