package sz

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"progqoi/internal/encoding"
)

// FuzzDecompress: a PSZ3 snapshot or PSZ3-Delta residual that a cluster
// node serves reaches Decompress behind only the batch CRC. Decompress
// either refuses the bytes with an error wrapping encoding.ErrCorrupt, or
// returns a field whose length is the size of the grid its header names;
// it never panics. It allocates no more than the symbols the payload can
// carry need: every Huffman code is at least one bit, so a buffer of n
// bytes holds at most 8n symbols, and each costs its decoded index and its
// reconstructed value. The committed corpus (testdata/fuzz) seeds it with
// a real 8×8 PSZ3 snapshot and a PSZ3-Delta residual.
func FuzzDecompress(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		field, g, _, err := Decompress(buf)
		runtime.ReadMemStats(&after)
		if d, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+8*len(buf)*16); d > limit {
			t.Fatalf("allocated %d bytes decoding %d; the symbols it can hold allow %d", d, len(buf), limit)
		}
		if err != nil {
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("Decompress: %v is not ErrCorrupt", err)
			}
			return
		}
		want, ok := headerSize(buf)
		if !ok || len(field) != want || g.Size() != want {
			t.Fatalf("%d values on a grid of %d; the header names %d (valid %v)", len(field), g.Size(), want, ok)
		}
	})
}

// headerSize reads the grid dimensions from a Compress header, as the
// format lays them out, and returns their product; ok is false when the
// header is too short to hold them or the product overflows.
func headerSize(buf []byte) (size int, ok bool) {
	if len(buf) < 8 {
		return 0, false
	}
	nd := int(binary.LittleEndian.Uint32(buf[4:]))
	if nd < 1 || len(buf) < 8+4*nd {
		return 0, false
	}
	size = 1
	for i := 0; i < nd; i++ {
		d := int(binary.LittleEndian.Uint32(buf[8+4*i:]))
		if d < 1 || size > math.MaxInt/d {
			return 0, false
		}
		size *= d
	}
	return size, true
}
