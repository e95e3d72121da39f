package server

import (
	"bytes"
	"errors"
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
