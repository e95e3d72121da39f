// Package sz implements an SZ3-class error-bounded lossy compressor for
// uniform-grid scientific data, used as the underlying single-snapshot
// compressor of the PSZ3 and PSZ3-delta progressive representations
// (paper §V-B).
//
// The design follows the interpolation-based SZ3 pipeline:
//
//  1. a level-by-level linear-interpolation predictor (coarse→fine, the
//     same dyadic lattice the multilevel decomposition uses), seeded by a
//     first-order Lorenzo scan over the coarsest lattice;
//  2. error-controlled linear quantization of prediction residuals with
//     bin width 2ε, where predictions always use *reconstructed* values so
//     the L∞ guarantee |x−x̂| ≤ ε holds unconditionally;
//  3. an outlier escape hatch: residuals outside the quantizer range are
//     stored bit-exact (error 0 at those points);
//  4. canonical Huffman coding of the quantization indices.
//
// The compressor is deterministic and self-describing; Decompress validates
// framing and rejects truncated or corrupted payloads.
package sz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"progqoi/internal/encoding"
	"progqoi/internal/grid"
)

// quantRadius bounds quantization indices: |q| ≤ quantRadius, larger
// residuals become outliers.
const quantRadius = 1 << 15

// maxAlphabet is the largest Huffman alphabet Compress writes: the zigzag
// indices of |q| ≤ quantRadius, and the outlier marker past them.
const maxAlphabet = 2*quantRadius + 2

// noMarker is the header sentinel meaning "no outliers in this stream". When
// outliers exist, the marker symbol is allocated just past the largest real
// zigzag index so the Huffman alphabet stays as dense as the data allows.
const noMarker = ^uint32(0)

// ErrBadInput reports invalid compression input.
var ErrBadInput = errors.New("sz: invalid input")

// Compress reduces data (row-major on g) under the absolute L∞ error bound
// eb > 0 and returns a self-describing buffer.
func Compress(data []float64, g *grid.Grid, eb float64) ([]byte, error) {
	if err := g.Validate(data); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("%w: error bound must be positive and finite, got %g", ErrBadInput, eb)
	}
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite value at index %d", ErrBadInput, i)
		}
	}

	recon := make([]float64, len(data))
	syms := make([]int, 0, len(data))
	var outliers []float64
	maxZig := 0
	quantize := func(off int, pred float64) {
		res := data[off] - pred
		q := math.Round(res / (2 * eb))
		if math.Abs(q) > quantRadius {
			syms = append(syms, -1) // placeholder, remapped below
			outliers = append(outliers, data[off])
			recon[off] = data[off]
			return
		}
		z := int(encoding.ZigZag(int64(q)))
		if z > maxZig {
			maxZig = z
		}
		syms = append(syms, z)
		recon[off] = pred + 2*eb*q
	}
	walkPredictionOrder(g, recon, quantize)

	marker := noMarker
	alphabet := maxZig + 1
	if len(outliers) > 0 {
		marker = uint32(maxZig + 1)
		alphabet = maxZig + 2
		for i, s := range syms {
			if s < 0 {
				syms[i] = int(marker)
			}
		}
	}
	huff, err := encoding.HuffmanEncode(syms, alphabet)
	if err != nil {
		return nil, err
	}

	hdr := make([]byte, 0, 20+4*g.NDims())
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(g.NDims()))
	hdr = append(hdr, tmp[:4]...)
	for _, d := range g.Dims() {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(d))
		hdr = append(hdr, tmp[:4]...)
	}
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(eb))
	hdr = append(hdr, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], marker)
	hdr = append(hdr, tmp[:4]...)

	out := encoding.PutSection(nil, hdr)
	out = encoding.PutSection(out, huff)
	out = encoding.PutSection(out, encoding.PutFloat64s(outliers))
	return out, nil
}

// Decompress reverses Compress, returning the reconstructed data, its grid,
// and the error bound it was compressed with.
func Decompress(buf []byte) ([]float64, *grid.Grid, float64, error) {
	hdr, n, err := encoding.GetSection(buf)
	if err != nil {
		return nil, nil, 0, err
	}
	off := n
	if len(hdr) < 4 {
		return nil, nil, 0, fmt.Errorf("%w: sz header", encoding.ErrCorrupt)
	}
	nd := int(binary.LittleEndian.Uint32(hdr))
	if nd < 1 || nd > 16 || len(hdr) != 4+4*nd+12 {
		return nil, nil, 0, fmt.Errorf("%w: sz header rank %d size %d", encoding.ErrCorrupt, nd, len(hdr))
	}
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = int(binary.LittleEndian.Uint32(hdr[4+4*i:]))
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(hdr[4+4*nd:]))
	marker := binary.LittleEndian.Uint32(hdr[4+4*nd+8:])
	g, err := grid.New(dims...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", encoding.ErrCorrupt, err)
	}
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, nil, 0, fmt.Errorf("%w: sz error bound %g", encoding.ErrCorrupt, eb)
	}

	huff, n, err := encoding.GetSection(buf[off:])
	if err != nil {
		return nil, nil, 0, err
	}
	off += n
	outSec, _, err := encoding.GetSection(buf[off:])
	if err != nil {
		return nil, nil, 0, err
	}
	syms, err := encoding.HuffmanDecode(huff, maxAlphabet)
	if err != nil {
		return nil, nil, 0, err
	}
	outliers, _, err := encoding.GetFloat64s(outSec)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(syms) != g.Size() {
		return nil, nil, 0, fmt.Errorf("%w: sz symbol count %d, want %d", encoding.ErrCorrupt, len(syms), g.Size())
	}

	recon := make([]float64, g.Size())
	si, oi := 0, 0
	var derr error
	dequantize := func(off int, pred float64) {
		if derr != nil {
			return
		}
		s := syms[si]
		si++
		if marker != noMarker && uint32(s) == marker {
			if oi >= len(outliers) {
				derr = fmt.Errorf("%w: sz outlier stream exhausted", encoding.ErrCorrupt)
				return
			}
			recon[off] = outliers[oi]
			oi++
			return
		}
		q := encoding.UnZigZag(uint64(s))
		recon[off] = pred + 2*eb*float64(q)
	}
	walkPredictionOrder(g, recon, dequantize)
	if derr != nil {
		return nil, nil, 0, derr
	}
	if oi != len(outliers) {
		return nil, nil, 0, fmt.Errorf("%w: sz %d unused outliers", encoding.ErrCorrupt, len(outliers)-oi)
	}
	return recon, g, eb, nil
}

// walkPredictionOrder visits every node exactly once in the deterministic
// prediction order shared by Compress and Decompress. For each node it calls
// visit(offset, prediction) where the prediction is computed from recon
// values already finalized by earlier visits. The visit callback must store
// the node's reconstructed value into recon[offset] before returning (both
// the quantizer and dequantizer do).
func walkPredictionOrder(g *grid.Grid, recon []float64, visit func(off int, pred float64)) {
	steps := g.NumLevels() - 1
	coarse := grid.LevelStride(steps)

	// Pass 1: coarsest lattice with first-order Lorenzo along the scan.
	prev := 0.0
	first := true
	walkLattice(g, coarse, func(off int) {
		if first {
			visit(off, 0)
			first = false
		} else {
			visit(off, prev)
		}
		prev = recon[off]
	})

	// Pass 2: refine level by level. Within a level, the pass along dim k
	// predicts nodes that are odd along k, with dims < k on the full level-s
	// lattice (already finalized earlier in this level) and dims > k on the
	// coarser 2s lattice (not yet refined). Every node with at least one odd
	// coordinate is therefore visited exactly once — in the pass of its last
	// odd dimension — and all its interpolation neighbors are finalized.
	for l := steps - 1; l >= 0; l-- {
		s := grid.LevelStride(l)
		for dim := 0; dim < g.NDims(); dim++ {
			if s >= g.Dim(dim) {
				continue
			}
			eachPredLine(g, dim, s, func(line []int) {
				m := len(line)
				for i := 1; i < m; i += 2 {
					var pred float64
					switch {
					case i-3 >= 0 && i+3 < m:
						// Cubic (four-point) interpolation, the SZ3 default
						// for interior nodes. All four stencil points are
						// even positions, finalized before this visit.
						pred = (-recon[line[i-3]] + 9*recon[line[i-1]] +
							9*recon[line[i+1]] - recon[line[i+3]]) / 16
					case i+1 < m:
						pred = 0.5 * (recon[line[i-1]] + recon[line[i+1]])
					default:
						pred = recon[line[i-1]]
					}
					visit(line[i], pred)
				}
			})
		}
	}
}

// walkLattice visits nodes whose coords are ≡ 0 (mod stride) in row-major
// order.
func walkLattice(g *grid.Grid, stride int, fn func(off int)) {
	ndim := g.NDims()
	var walk func(dim, off int)
	walk = func(dim, off int) {
		if dim == ndim {
			fn(off)
			return
		}
		for c := 0; c < g.Dim(dim); c += stride {
			walk(dim+1, off+c*g.Stride(dim))
		}
	}
	walk(0, 0)
}

// eachPredLine iterates prediction lines along dim at level stride s: dims
// before dim step by s (fully refined at this level), dims after step by 2s
// (still coarse).
func eachPredLine(g *grid.Grid, dim, s int, fn func(line []int)) {
	ndim := g.NDims()
	ext := g.Dim(dim)
	stride := g.Stride(dim)
	nLine := (ext + s - 1) / s
	line := make([]int, nLine)
	var walk func(k, base int)
	walk = func(k, base int) {
		if k == ndim {
			for i := 0; i < nLine; i++ {
				line[i] = base + i*s*stride
			}
			fn(line)
			return
		}
		if k == dim {
			walk(k+1, base)
			return
		}
		step := s
		if k > dim {
			step = 2 * s
		}
		e := g.Dim(k)
		st := g.Stride(k)
		for c := 0; c < e; c += step {
			walk(k+1, base+c*st)
		}
	}
	walk(0, 0)
}
