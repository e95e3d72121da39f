package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"progqoi/internal/encoding"
)

// The wire fuzzers append a valid CRC32C to the fuzzed body, so a mutation
// reaches the frame parser instead of dying at the checksum. The oracle is
// the one FuzzDecodeVariable holds an archive blob to: the decoder either
// refuses the frame with an error wrapping encoding.ErrCorrupt, or returns
// a value its encoder writes back byte for byte, so it accepts exactly the
// frames the server produces. The committed corpus (testdata/fuzz) seeds
// them with real EncodeMeta and EncodeBatch frames, CRC trailers removed.

// FuzzDecodeBatch: the batched fragment response, PQFRAG1.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := encoding.AppendCRC(bytes.Clone(body))
		frags, err := DecodeBatch(raw)
		if err != nil {
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("DecodeBatch: %v is not ErrCorrupt", err)
			}
			return
		}
		if back := EncodeBatch(frags); !bytes.Equal(back, raw) {
			t.Fatalf("%d decoded bytes re-encode to %d different ones", len(raw), len(back))
		}
	})
}

// FuzzDecodeMeta: the retrieval-metadata frame, PQMETA1.
func FuzzDecodeMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := encoding.AppendCRC(bytes.Clone(body))
		vars, err := DecodeMeta(raw)
		if err != nil {
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("DecodeMeta: %v is not ErrCorrupt", err)
			}
			return
		}
		if back := EncodeMeta(vars); !bytes.Equal(back, raw) {
			t.Fatalf("%d decoded bytes re-encode to %d different ones", len(raw), len(back))
		}
	})
}

// TestDecodeMetaForgedHeaders feeds meta frames whose variable count
// promises more variables than the bytes after it can hold: each
// variable takes at least a 4-byte section. Each must be refused as
// corrupt before DecodeMeta allocates for the count (65,536 variables
// once cost 524 KB for a 12-byte body).
func TestDecodeMetaForgedHeaders(t *testing.T) {
	forged := func(n uint32, rest ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(bytes.Clone(metaMagic), n)
		return encoding.AppendCRC(append(b, rest...))
	}
	cases := map[string][]byte{
		"max count, no variables":  forged(1 << 16),
		"two counted, one section": forged(2, 0, 0, 0, 0),
	}
	for name, raw := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeMeta(raw)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, encoding.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
			t.Errorf("%s: allocated %d bytes", name, d)
		}
	}
}
