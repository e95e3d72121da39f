package grid

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsBadDims(t *testing.T) {
	// The last extents multiply past an int: 2^64 wraps to 0.
	cases := [][]int{{}, {0}, {-1}, {3, 0, 2}, {2, -5}, {1 << 16, 1 << 16, 1 << 16, 1 << 16}}
	for _, dims := range cases {
		if _, err := New(dims...); err == nil {
			t.Errorf("New(%v) should fail", dims)
		}
	}
}

func TestSizeAndStrides(t *testing.T) {
	g := MustNew(4, 3, 5)
	if g.Size() != 60 {
		t.Fatalf("size = %d, want 60", g.Size())
	}
	if g.Stride(0) != 15 || g.Stride(1) != 5 || g.Stride(2) != 1 {
		t.Fatalf("strides = %d,%d,%d", g.Stride(0), g.Stride(1), g.Stride(2))
	}
	if g.NDims() != 3 {
		t.Fatalf("ndims = %d", g.NDims())
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := MustNew(3, 7, 2)
	for off := 0; off < g.Size(); off++ {
		c := g.Coords(off)
		if got := g.Index(c...); got != off {
			t.Fatalf("Index(Coords(%d)) = %d", off, got)
		}
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	g := MustNew(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Index(0, 2)
}

func TestIndexPanicsRankMismatch(t *testing.T) {
	g := MustNew(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Index(0)
}

func TestNumLevels(t *testing.T) {
	cases := []struct {
		dims []int
		want int
	}{
		{[]int{1}, 1},
		{[]int{2}, 1},
		{[]int{3}, 2},
		{[]int{5}, 3},
		{[]int{9}, 4},
		{[]int{17}, 5},
		{[]int{100}, 7},
		{[]int{1, 1, 1}, 1},
		{[]int{3, 9}, 4},
		{[]int{512, 512, 512}, 9},
	}
	for _, c := range cases {
		if got := MustNew(c.dims...).NumLevels(); got != c.want {
			t.Errorf("NumLevels%v = %d, want %d", c.dims, got, c.want)
		}
	}
}

func TestLevelStride(t *testing.T) {
	for l, want := range []int{1, 2, 4, 8, 16} {
		if got := LevelStride(l); got != want {
			t.Errorf("LevelStride(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	g := MustNew(2, 3)
	if err := g.Validate(make([]float64, 6)); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := g.Validate(make([]float64, 5)); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := MustNew(4, 5)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone should be equal")
	}
	if g.Equal(MustNew(5, 4)) {
		t.Fatal("different shape should not be equal")
	}
	if g.Equal(MustNew(4)) {
		t.Fatal("different rank should not be equal")
	}
	if g.Equal(nil) {
		t.Fatal("nil should not be equal")
	}
}

func TestCoordsPanicsOutOfRange(t *testing.T) {
	g := MustNew(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Coords(4)
}

func TestPropertyIndexBijective(t *testing.T) {
	f := func(a, b, c uint8) bool {
		d0, d1, d2 := int(a%7)+1, int(b%7)+1, int(c%7)+1
		g := MustNew(d0, d1, d2)
		seen := make(map[int]bool)
		for i := 0; i < d0; i++ {
			for j := 0; j < d1; j++ {
				for k := 0; k < d2; k++ {
					off := g.Index(i, j, k)
					if off < 0 || off >= g.Size() || seen[off] {
						return false
					}
					seen[off] = true
				}
			}
		}
		return len(seen) == g.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	if s := MustNew(2, 3).String(); s != "grid[2 3]" {
		t.Fatalf("String = %q", s)
	}
}
