package encoding

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sync"
)

// A flate.Writer carries ≈ 0.8 MB of match tables and a flate.Reader its
// Huffman tables and window; a pack builds thousands of fragments, so both
// are recycled through the pools below with Writer.Reset / flate.Resetter.
// The pools are object reuse, not a worker pool: they bound nothing, hold
// no goroutine, and the GC may empty them at any time. Only codec state and
// the compressor's scratch output are pooled — every slice returned to a
// caller is freshly allocated (or aliases the caller's own input).

// deflater is one reusable compressor writing into its own buffer.
type deflater struct {
	buf  bytes.Buffer
	fw   *flate.Writer
	pool *sync.Pool
}

// deflaters has one pool per flate level, HuffmanOnly (-2) to
// BestCompression (9): a Writer keeps the level it was built with.
var deflaters [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// compress runs data through a level-`level` compressor and returns it with
// the DEFLATE stream in buf. The caller copies out what it keeps and then
// calls release. A level outside flate's range gets flate's own error.
func compress(data []byte, level int) (*deflater, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	var pool *sync.Pool
	var z *deflater
	if level >= flate.HuffmanOnly && level <= flate.BestCompression {
		pool = &deflaters[level-flate.HuffmanOnly]
		z, _ = pool.Get().(*deflater)
	}
	if z == nil {
		z = &deflater{pool: pool}
		fw, err := flate.NewWriter(&z.buf, level)
		if err != nil {
			return nil, err // level out of range: nothing was pooled
		}
		z.fw = fw
	} else {
		z.buf.Reset()
		z.fw.Reset(&z.buf)
	}
	if _, err := z.fw.Write(data); err != nil {
		return nil, err
	}
	if err := z.fw.Close(); err != nil {
		return nil, err
	}
	return z, nil
}

func (z *deflater) release() { z.pool.Put(z) }

// Deflate compresses data with DEFLATE at the given level (1..9; 0 means
// flate.DefaultCompression).
func Deflate(data []byte, level int) ([]byte, error) {
	z, err := compress(data, level)
	if err != nil {
		return nil, err
	}
	defer z.release()
	return bytes.Clone(z.buf.Bytes()), nil
}

// inflater is one reusable decompressor reading from its own bytes.Reader.
type inflater struct {
	src   bytes.Reader
	fr    io.Reader // a flate reader over &src; also a flate.Resetter
	probe [1]byte
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.fr = flate.NewReader(&z.src)
	return z
}}

// inflateAppend appends the inflation of data to out, reading straight into
// out's spare capacity and growing it only once that is full, so a caller
// that knows the decoded size pays one allocation and nobody allocates far
// ahead of the bytes that actually inflate. More than maxSize bytes is
// ErrCorrupt.
func inflateAppend(out, data []byte, maxSize int) ([]byte, error) {
	z := inflaters.Get().(*inflater)
	defer func() {
		z.src.Reset(nil) // an idle inflater must not pin the caller's input
		inflaters.Put(z)
	}()
	z.src.Reset(data)
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, err
	}
	for {
		dst := z.probe[:] // at the limit: the stream has to end here
		if len(out) < maxSize {
			if len(out) == cap(out) {
				out = append(out, 0)[:len(out)]
			}
			dst = out[len(out):min(cap(out), maxSize)]
		}
		n, err := z.fr.Read(dst)
		if n > 0 && len(out) == maxSize {
			return nil, fmt.Errorf("%w: inflated size exceeds limit %d", ErrCorrupt, maxSize)
		}
		out = out[:len(out)+n]
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
		}
	}
}

// Inflate reverses Deflate. maxSize bounds the decoded size to guard against
// decompression bombs from corrupted fragments (0 = 1 GiB default).
func Inflate(data []byte, maxSize int64) ([]byte, error) {
	if maxSize <= 0 {
		maxSize = 1 << 30
	}
	return inflateAppend(make([]byte, 0, min(maxSize, 512)), data, int(maxSize))
}

// Tagged fragments: one tag byte, then the payload — 0 = raw, 1 = DEFLATE.
// The writer stores the DEFLATE form only when it is strictly smaller than
// the raw bytes (FORMATS.md).

// taggedLevel is the DEFLATE level of every tagged fragment; changing it
// changes stored bytes.
const taggedLevel = 6

// PutTagged frames raw as a tagged fragment.
func PutTagged(raw []byte) ([]byte, error) {
	z, err := compress(raw, taggedLevel)
	if err != nil {
		return nil, err
	}
	defer z.release()
	tag, payload := byte(0), raw
	if c := z.buf.Bytes(); len(c) < len(raw) {
		tag, payload = 1, c
	}
	out := make([]byte, 1+len(payload))
	out[0] = tag
	copy(out[1:], payload)
	return out, nil
}

// GetTagged returns the payload of a tagged fragment, which must be exactly
// size bytes. A raw payload aliases frag; a DEFLATE payload is inflated
// into one new buffer of that size.
func GetTagged(frag []byte, size int) ([]byte, error) {
	if len(frag) == 0 {
		return nil, fmt.Errorf("%w: empty fragment", ErrCorrupt)
	}
	var raw []byte
	switch frag[0] {
	case 0:
		raw = frag[1:]
	case 1:
		var err error
		if raw, err = inflateAppend(make([]byte, 0, size), frag[1:], size); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown fragment tag %d", ErrCorrupt, frag[0])
	}
	if len(raw) != size {
		return nil, fmt.Errorf("%w: fragment size %d, want %d", ErrCorrupt, len(raw), size)
	}
	return raw, nil
}
