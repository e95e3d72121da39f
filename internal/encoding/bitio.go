// Package encoding provides the lossless back end shared by the compressors:
// bit-level I/O, a canonical Huffman coder over bounded integer alphabets,
// zigzag/varint integer streams, and DEFLATE wrapping. All encoders produce
// self-describing byte slices that their decoders validate defensively, so a
// truncated or corrupted fragment yields an error instead of silent garbage.
package encoding

import (
	"errors"
	"fmt"
)

// ErrCorrupt reports a malformed or truncated encoded stream.
var ErrCorrupt = errors.New("encoding: corrupt stream")

// BitWriter accumulates bits LSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	cur  uint64
	nCur uint // bits occupied in cur (< 64)
}

// NewBitWriter returns an empty writer with capacity hint n bytes.
func NewBitWriter(n int) *BitWriter {
	return &BitWriter{buf: make([]byte, 0, n)}
}

// WriteBits writes the low nb bits of v (nb ≤ 57 per call).
func (w *BitWriter) WriteBits(v uint64, nb uint) {
	if nb > 57 {
		panic("encoding: WriteBits supports at most 57 bits per call")
	}
	w.cur |= (v & ((1 << nb) - 1)) << w.nCur
	w.nCur += nb
	for w.nCur >= 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur >>= 8
		w.nCur -= 8
	}
}

// Bytes flushes any partial byte (zero-padded) and returns the buffer. The
// writer remains usable; subsequent writes continue at a byte boundary.
func (w *BitWriter) Bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur = 0
		w.nCur = 0
	}
	return w.buf
}

// BitReader reads bits LSB-first from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int // next byte index
	cur  uint64
	nCur uint
}

// NewBitReader wraps buf.
func NewBitReader(buf []byte) *BitReader {
	return &BitReader{buf: buf}
}

// ReadBits reads nb bits (nb ≤ 57). It returns ErrCorrupt past end of input.
func (r *BitReader) ReadBits(nb uint) (uint64, error) {
	if nb > 57 {
		panic("encoding: ReadBits supports at most 57 bits per call")
	}
	for r.nCur < nb {
		if r.pos >= len(r.buf) {
			return 0, fmt.Errorf("%w: bit stream exhausted", ErrCorrupt)
		}
		r.cur |= uint64(r.buf[r.pos]) << r.nCur
		r.pos++
		r.nCur += 8
	}
	v := r.cur & ((1 << nb) - 1)
	r.cur >>= nb
	r.nCur -= nb
	return v, nil
}

// ReadBit reads one bit.
func (r *BitReader) ReadBit() (uint64, error) { return r.ReadBits(1) }
