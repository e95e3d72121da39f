package server

// Wire formats shared by the fragment service and the remote client
// (internal/client imports these types and codecs, so the two ends of the
// protocol can never drift apart).
//
// Three formats travel the wire:
//
//   - Index: a JSON description of one dataset — variable names, methods,
//     grid dims, and the true byte size of every fragment — enough for a
//     client to plan fetches and account for bytes without touching data.
//
//   - Meta blob: a binary, CRC-framed bundle of every variable's retrieval
//     metadata (range, zero mask, prefix bounds, schedule, block shapes)
//     with the fragment payloads stripped to zero length. A client decodes
//     it straight into meta-only core.Variables and fills payloads in
//     lazily as it fetches fragments.
//
//   - Batch blob: a binary, CRC-framed set of (variable, index, payload)
//     fragment tuples — the response of the batched fetch endpoint, one
//     round trip per retrieval iteration.

import (
	"encoding/binary"
	"fmt"

	"progqoi/internal/core"
	"progqoi/internal/encoding"
	"progqoi/internal/storage"
)

// Index describes one served dataset.
type Index struct {
	Dataset   string          `json:"dataset"`
	Variables []IndexVariable `json:"variables"`
}

// IndexVariable describes one variable of a served dataset.
type IndexVariable struct {
	Name          string  `json:"name"`
	Method        string  `json:"method"`
	Dims          []int   `json:"dims"`
	FragmentSizes []int64 `json:"fragmentSizes"`
	TotalBytes    int64   `json:"totalBytes"`
}

// BatchWant names the fragments of one variable a batched fetch asks for.
type BatchWant struct {
	Var     string `json:"var"`
	Indices []int  `json:"indices"`
}

// BatchRequest is the JSON body of the batched fragment fetch endpoint.
type BatchRequest struct {
	Wants []BatchWant `json:"wants"`
}

// BatchFragment is one fragment of a batched fetch response.
type BatchFragment struct {
	Var     string
	Index   int
	Payload []byte
}

var (
	metaMagic  = []byte("PQMETA1\n")
	batchMagic = []byte("PQFRAG1\n")
)

// BuildIndex summarizes a dataset's variables into its wire Index.
func BuildIndex(name string, vars []*core.Variable) *Index {
	idx := &Index{Dataset: name}
	for _, v := range vars {
		iv := IndexVariable{
			Name:   v.Name,
			Method: v.Ref.Method.String(),
			Dims:   append([]int(nil), v.Ref.Dims...),
		}
		for _, f := range v.Ref.Fragments {
			iv.FragmentSizes = append(iv.FragmentSizes, int64(len(f)))
			iv.TotalBytes += int64(len(f))
		}
		idx.Variables = append(idx.Variables, iv)
	}
	return idx
}

// EncodeMeta bundles the variables' retrieval metadata — fragment payloads
// stripped to zero-length placeholders — into a CRC-framed blob.
func EncodeMeta(vars []*core.Variable) []byte {
	out := append([]byte(nil), metaMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(vars)))
	for _, v := range vars {
		ref := *v.Ref
		ref.Fragments = make([][]byte, len(v.Ref.Fragments))
		for i := range ref.Fragments {
			ref.Fragments[i] = []byte{}
		}
		mv := *v
		mv.Ref = &ref
		out = encoding.PutSection(out, storage.EncodeVariable(&mv))
	}
	return encoding.AppendCRC(out)
}

// DecodeMeta parses an EncodeMeta blob into meta-only variables whose
// Refactored carries the right fragment count but zero-length payloads. It
// accepts exactly the frames EncodeMeta writes: a payload, or a byte after
// the last variable, is corruption.
func DecodeMeta(raw []byte) ([]*core.Variable, error) {
	blob, err := encoding.CheckCRC(raw)
	if err != nil {
		return nil, fmt.Errorf("server: meta blob: %w", err)
	}
	if len(blob) < len(metaMagic)+4 || string(blob[:len(metaMagic)]) != string(metaMagic) {
		return nil, fmt.Errorf("%w: bad meta magic", encoding.ErrCorrupt)
	}
	off := len(metaMagic)
	n := int(binary.LittleEndian.Uint32(blob[off:]))
	off += 4
	// Every variable takes at least a 4-byte section, so a count the bytes
	// left cannot hold is refused before anything is allocated.
	if n < 0 || n > 1<<16 || n > (len(blob)-off)/4 {
		return nil, fmt.Errorf("%w: %d meta variables in a %d-byte blob", encoding.ErrCorrupt, n, len(blob))
	}
	vars := make([]*core.Variable, n)
	for i := 0; i < n; i++ {
		sec, m, err := encoding.GetSection(blob[off:])
		if err != nil {
			return nil, err
		}
		off += m
		v, err := storage.DecodeVariable(sec)
		if err != nil {
			return nil, fmt.Errorf("server: meta variable %d: %w", i, err)
		}
		for j, f := range v.Ref.Fragments {
			if len(f) != 0 {
				return nil, fmt.Errorf("%w: meta variable %d carries a %d-byte payload for fragment %d", encoding.ErrCorrupt, i, len(f), j)
			}
		}
		vars[i] = v
	}
	if off != len(blob) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the meta variables", encoding.ErrCorrupt, len(blob)-off)
	}
	return vars, nil
}

// EncodeBatch frames fragment tuples into a CRC-protected response blob.
func EncodeBatch(frags []BatchFragment) []byte {
	out := append([]byte(nil), batchMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(frags)))
	for _, f := range frags {
		out = encoding.PutSection(out, []byte(f.Var))
		out = binary.LittleEndian.AppendUint32(out, uint32(f.Index))
		out = encoding.PutSection(out, f.Payload)
	}
	return encoding.AppendCRC(out)
}

// DecodeBatch parses an EncodeBatch blob, detecting truncation and
// corruption via the frame CRC. It accepts exactly the frames EncodeBatch
// writes: a byte after the last fragment is corruption.
func DecodeBatch(raw []byte) ([]BatchFragment, error) {
	blob, err := encoding.CheckCRC(raw)
	if err != nil {
		return nil, fmt.Errorf("server: batch blob: %w", err)
	}
	if len(blob) < len(batchMagic)+4 || string(blob[:len(batchMagic)]) != string(batchMagic) {
		return nil, fmt.Errorf("%w: bad batch magic", encoding.ErrCorrupt)
	}
	off := len(batchMagic)
	n := int(binary.LittleEndian.Uint32(blob[off:]))
	off += 4
	// Each fragment needs at least two section headers plus an index
	// (12 bytes); bounding n by the blob size keeps a corrupt count from
	// forcing a huge allocation before parsing fails.
	if n < 0 || n > 1<<24 || n > len(blob)/12 {
		return nil, fmt.Errorf("%w: %d batch fragments in %d bytes", encoding.ErrCorrupt, n, len(blob))
	}
	out := make([]BatchFragment, n)
	for i := 0; i < n; i++ {
		name, m, err := encoding.GetSection(blob[off:])
		if err != nil {
			return nil, err
		}
		off += m
		if off+4 > len(blob) {
			return nil, fmt.Errorf("%w: batch fragment %d truncated", encoding.ErrCorrupt, i)
		}
		idx := int(binary.LittleEndian.Uint32(blob[off:]))
		off += 4
		payload, m, err := encoding.GetSection(blob[off:])
		if err != nil {
			return nil, err
		}
		off += m
		out[i] = BatchFragment{Var: string(name), Index: idx, Payload: payload}
	}
	if off != len(blob) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the batch fragments", encoding.ErrCorrupt, len(blob)-off)
	}
	return out, nil
}
