package progressive

import (
	"bytes"
	"testing"
)

// TestMarshalSize: MarshalSize is len(Marshal()) for every method, for a
// representation whose payloads are stripped to zero length (what the
// fragment service's metadata blob carries) and for one with no fragments
// at all, and AppendMarshal writes Marshal's bytes after a prefix without
// growing a buffer sized by it.
func TestMarshalSize(t *testing.T) {
	dims := []int{33, 9}
	data := smoothField(dims)
	type tc struct {
		name string
		ref  *Refactored
	}
	var cases []tc
	for _, m := range allMethods {
		ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatal(err)
		}
		stripped := *ref
		stripped.Fragments = make([][]byte, len(ref.Fragments))
		for i := range stripped.Fragments {
			stripped.Fragments[i] = []byte{}
		}
		none := *ref
		none.Fragments, none.PrefixBounds, none.Schedule = nil, nil, nil
		cases = append(cases,
			tc{m.String(), ref},
			tc{m.String() + "/zero-length fragments", &stripped},
			tc{m.String() + "/no fragments", &none})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := c.ref.Marshal()
			if got := c.ref.MarshalSize(); got != len(want) {
				t.Fatalf("MarshalSize %d, len(Marshal()) %d", got, len(want))
			}
			if _, err := Unmarshal(want); err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			dst := make([]byte, len(prefix), len(prefix)+c.ref.MarshalSize())
			copy(dst, prefix)
			out := c.ref.AppendMarshal(dst)
			if &out[0] != &dst[0] {
				t.Fatal("AppendMarshal grew a buffer sized by MarshalSize")
			}
			if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
				t.Fatal("AppendMarshal bytes differ from Marshal's")
			}
		})
	}
}
