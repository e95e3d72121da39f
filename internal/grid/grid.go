// Package grid provides small N-dimensional uniform-grid utilities shared by
// the multilevel decomposition, the SZ-class compressor, and the synthetic
// dataset generators.
//
// Data is always stored in a flat []float64 in row-major (C) order: the last
// dimension varies fastest. A Grid describes the shape of that flat buffer
// and offers index arithmetic, level geometry for dyadic multilevel methods,
// and bounds-checked slicing helpers.
package grid

import (
	"errors"
	"fmt"
	"math"
)

// Grid describes the shape of a row-major N-d array.
type Grid struct {
	dims    []int
	strides []int
	size    int
}

// ErrBadDims reports an invalid dimension specification.
var ErrBadDims = errors.New("grid: dimensions must be positive")

// New builds a Grid from dims. It returns ErrBadDims when dims is empty,
// any extent is < 1, or the point count overflows an int.
func New(dims ...int) (*Grid, error) {
	if len(dims) == 0 {
		return nil, ErrBadDims
	}
	size := 1
	for _, d := range dims {
		if d < 1 || size > math.MaxInt/d {
			return nil, fmt.Errorf("%w: got %v", ErrBadDims, dims)
		}
		size *= d
	}
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	g := &Grid{dims: append([]int(nil), dims...), strides: strides, size: size}
	return g, nil
}

// MustNew is New that panics on error; intended for tests and literals.
func MustNew(dims ...int) *Grid {
	g, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return g
}

// NDims returns the number of dimensions.
func (g *Grid) NDims() int { return len(g.dims) }

// Dims returns a copy of the dimension extents.
func (g *Grid) Dims() []int { return append([]int(nil), g.dims...) }

// Dim returns the extent of dimension i.
func (g *Grid) Dim(i int) int { return g.dims[i] }

// Stride returns the row-major stride of dimension i.
func (g *Grid) Stride(i int) int { return g.strides[i] }

// Size returns the total number of elements.
func (g *Grid) Size() int { return g.size }

// Index converts multi-indices to a flat offset. It panics when the number
// of coordinates mismatches the rank or a coordinate is out of range.
func (g *Grid) Index(coords ...int) int {
	if len(coords) != len(g.dims) {
		panic(fmt.Sprintf("grid: Index got %d coords for rank-%d grid", len(coords), len(g.dims)))
	}
	off := 0
	for i, c := range coords {
		if c < 0 || c >= g.dims[i] {
			panic(fmt.Sprintf("grid: coordinate %d out of range [0,%d) in dim %d", c, g.dims[i], i))
		}
		off += c * g.strides[i]
	}
	return off
}

// Coords converts a flat offset back to multi-indices.
func (g *Grid) Coords(off int) []int {
	if off < 0 || off >= g.size {
		panic(fmt.Sprintf("grid: offset %d out of range [0,%d)", off, g.size))
	}
	out := make([]int, len(g.dims))
	for i := range g.dims {
		out[i] = off / g.strides[i]
		off %= g.strides[i]
	}
	return out
}

// String implements fmt.Stringer.
func (g *Grid) String() string { return fmt.Sprintf("grid%v", g.dims) }

// NumLevels returns the number of dyadic levels a multilevel method can use
// on this grid: the largest L such that every dimension with extent > 1 can
// be coarsened L-1 times with stride doubling while keeping at least two
// nodes. A rank-N grid with all extents 1 has a single level.
func (g *Grid) NumLevels() int {
	max := 1
	for _, d := range g.dims {
		l := 1
		for s := 1; s*2 < d; s *= 2 {
			l++
		}
		if l > max {
			max = l
		}
	}
	return max
}

// LevelStride returns the node spacing of level l counted from the finest
// level 0: stride 2^l.
func LevelStride(l int) int {
	s := 1
	for i := 0; i < l; i++ {
		s *= 2
	}
	return s
}

// Validate checks that data has exactly Size elements.
func (g *Grid) Validate(data []float64) error {
	if len(data) != g.size {
		return fmt.Errorf("grid: data length %d does not match %v (size %d)", len(data), g.dims, g.size)
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Grid) Clone() *Grid {
	return &Grid{dims: append([]int(nil), g.dims...), strides: append([]int(nil), g.strides...), size: g.size}
}

// Equal reports whether two grids have identical shapes.
func (g *Grid) Equal(o *Grid) bool {
	if o == nil || len(g.dims) != len(o.dims) {
		return false
	}
	for i := range g.dims {
		if g.dims[i] != o.dims[i] {
			return false
		}
	}
	return true
}
