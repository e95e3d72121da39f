package encoding

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
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
// ahead of the bytes that actually inflate. It grows out by doubling, and
// straight to maxSize once a doubling would pass half of it, so the
// capacities it makes before the last sum to less than maxSize and what it
// allocates is out's capacity plus less than twice maxSize. More than
// maxSize bytes is ErrCorrupt.
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
				size := max(2*cap(out), 512)
				if 2*size > maxSize {
					size = maxSize
				}
				grown := make([]byte, len(out), size)
				copy(grown, out)
				out = grown
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
// The writer stores the DEFLATE form only when it attempted it and it is
// strictly smaller than the raw bytes; it skips the attempt where
// incompressible says DEFLATE will not shrink them (FORMATS.md).

// taggedLevel is the DEFLATE level of every tagged fragment; changing it
// changes stored bytes.
const taggedLevel = 6

// maxPredicted is the largest input incompressible judges: up to it,
// 9216·Σc² ≤ 9216·n² < 2⁶² cannot overflow a uint64. Anything larger
// takes the DEFLATE attempt.
const maxPredicted = 1 << 24

// incompressible reports that level-6 DEFLATE will not shrink raw, so
// PutTagged may store it raw without the attempt.
//
// Under 10 bytes this is exact. compress/flate closes every stream with an
// empty stored block (3 bits, padding, 4 bytes), and a block carrying two
// or more bytes costs at least 30 bits: a fixed-code literal, a match and
// end-of-block. So the stream is at least 9 bytes long (7 for one byte, 5
// for none) and never shorter than the input.
//
// From 16 bytes to maxPredicted it is a prediction, and both halves of the
// test must say the bytes look like uniform noise:
//
//   - Huffman coding: the 256-bin byte histogram passes a χ² test against
//     uniform, χ² = 256·Σc²/n − n ≤ 255 + n/36, in integers
//     9216·Σc² ≤ n·(37n + 9180);
//   - LZ matches, which a histogram cannot see: a 4096-slot table holding
//     the last 4-byte window per hash sees at most n/4096 + 2 exact
//     repeats of a non-zero window. Noise repeats about once per 2²⁰
//     windows; a block repeated 8 KiB later still finds about one window
//     in seven in its slot.
//
// The arithmetic is integer only, so every platform and worker count
// writes the same bytes. The prediction agrees with the attempt on every
// fragment of the generated datasets, which TestPredictorCorpusZeroLoss
// and the pack golden hashes check. Other sizes take the attempt.
func incompressible(raw []byte) bool {
	n := len(raw)
	if n < 10 {
		return true
	}
	if n < 16 || n > maxPredicted {
		return false
	}
	var hist [256]uint32
	for _, c := range raw {
		hist[c]++
	}
	var sq uint64
	for _, c := range hist {
		sq += uint64(c) * uint64(c)
	}
	if un := uint64(n); 9216*sq > un*(37*un+9180) {
		return false
	}
	var last [4096]uint32
	repeats, limit := 0, n/4096+2
	v := uint32(raw[0])<<8 | uint32(raw[1])<<16 | uint32(raw[2])<<24
	for _, c := range raw[3:] {
		v = v>>8 | uint32(c)<<24 // the little-endian window ending at c
		if v == 0 {
			continue
		}
		h := v * 2654435761 >> 20
		if last[h] == v {
			if repeats++; repeats > limit {
				return false
			}
		}
		last[h] = v
	}
	return true
}

// PutTagged frames raw as a tagged fragment.
func PutTagged(raw []byte) ([]byte, error) {
	tag, payload, z, err := taggedPayload(raw)
	if err != nil {
		return nil, err
	}
	if z != nil {
		defer z.release()
	}
	return tagged(tag, payload), nil
}

// AppendTaggedSections appends to dst, for each raw in turn, a section
// (PutSection framing) holding PutTagged(raw). It grows dst at most once,
// to exactly the size needed, so a caller that keeps several fragments
// together, or a fragment with its section header, copies each compressed
// byte once.
func AppendTaggedSections(dst []byte, raws ...[]byte) ([]byte, error) {
	tags := make([]byte, len(raws))
	payloads := make([][]byte, len(raws))
	need := 0
	for i, raw := range raws {
		tag, payload, z, err := taggedPayload(raw)
		if err != nil {
			return nil, err
		}
		if z != nil {
			defer z.release()
		}
		tags[i], payloads[i] = tag, payload
		need += 4 + 1 + len(payload)
	}
	if cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	for i, payload := range payloads {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(payload)))
		dst = append(dst, tags[i])
		dst = append(dst, payload...)
	}
	return dst, nil
}

// taggedPayload picks the tag and payload PutTagged stores for raw. A
// DEFLATE payload lives in z's buffer, which the caller releases once it
// has copied it; a raw one aliases raw, and z is nil.
func taggedPayload(raw []byte) (tag byte, payload []byte, z *deflater, err error) {
	if incompressible(raw) {
		return 0, raw, nil, nil
	}
	if z, err = compress(raw, taggedLevel); err != nil {
		return 0, nil, nil, err
	}
	if c := z.buf.Bytes(); len(c) < len(raw) {
		return 1, c, z, nil
	}
	z.release()
	return 0, raw, nil, nil
}

// tagged returns tag followed by a copy of payload.
func tagged(tag byte, payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	out[0] = tag
	copy(out[1:], payload)
	return out
}

// GetTagged returns the payload of a tagged fragment, which must be exactly
// size bytes. A raw payload aliases frag; a DEFLATE payload is inflated
// into one new buffer of that size. Anything else, a negative size
// included, is ErrCorrupt.
func GetTagged(frag []byte, size int) ([]byte, error) {
	return GetTaggedInto(frag, size, nil)
}

// GetTaggedInto is GetTagged for a caller that keeps a buffer: a DEFLATE
// payload is inflated into *scratch's storage, grown to size bytes when it
// is smaller, and *scratch is left holding it, so the same scratch passed
// for the next fragment reuses one buffer. A raw payload still aliases
// frag and leaves *scratch as it was.
func GetTaggedInto(frag []byte, size int, scratch *[]byte) ([]byte, error) {
	if len(frag) == 0 {
		return nil, fmt.Errorf("%w: empty fragment", ErrCorrupt)
	}
	var raw []byte
	switch frag[0] {
	case 0:
		raw = frag[1:]
	case 1:
		if size < 0 {
			return nil, fmt.Errorf("%w: negative fragment size %d", ErrCorrupt, size)
		}
		var out []byte
		if scratch != nil {
			out = (*scratch)[:0]
		}
		if cap(out) < size {
			// A 258-byte match costs DEFLATE at least 2 bits, so the
			// payload inflates to at most 1032 bytes per byte: reserve no
			// more than that, whatever size claims.
			reserve := size
			if c := len(frag) - 1; c < size/1032 {
				reserve = 1032 * c
			}
			out = make([]byte, 0, reserve)
		}
		var err error
		if raw, err = inflateAppend(out, frag[1:], size); err != nil {
			return nil, err
		}
		if scratch != nil {
			*scratch = raw
		}
	default:
		return nil, fmt.Errorf("%w: unknown fragment tag %d", ErrCorrupt, frag[0])
	}
	if len(raw) != size {
		return nil, fmt.Errorf("%w: fragment size %d, want %d", ErrCorrupt, len(raw), size)
	}
	return raw, nil
}
