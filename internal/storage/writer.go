package storage

import (
	"context"
	"encoding/binary"
	"fmt"

	"progqoi/internal/core"
	"progqoi/internal/encoding"
)

// ArchiveWriter streams an archive into a store one variable at a time:
// each WriteVariable flushes that variable's CRC-framed blob immediately,
// and Close writes the manifest last. Because the manifest is the commit
// point — readers and the fragment service only recognise a dataset by its
// ".manifest" key — a writer killed mid-stream leaves the store readable:
// the orphaned variable blobs are ignored until a later pack completes.
// The store contents are byte-identical to WriteArchive over the same
// variables in the same order.
//
// An ArchiveWriter is single-use and not safe for concurrent use.
type ArchiveWriter struct {
	st       Store
	name     string
	sections []byte // manifest name sections, in write order
	count    uint32
	bytes    int64
	seen     map[string]bool
	closed   bool
}

// NewArchiveWriter starts streaming an archive named name into st. The
// dataset name must be usable as a store key.
func NewArchiveWriter(st Store, name string) (*ArchiveWriter, error) {
	if err := validKey(name + ".manifest"); err != nil {
		return nil, err
	}
	return &ArchiveWriter{st: st, name: name, seen: map[string]bool{}}, nil
}

// WriteVariable flushes one refactored variable to the store. Variables
// appear in the manifest in write order; duplicate names are rejected.
func (w *ArchiveWriter) WriteVariable(ctx context.Context, v *core.Variable) error {
	if w.closed {
		return fmt.Errorf("storage: archive %q already closed", w.name)
	}
	key := VarKey(w.name, v.Name)
	if err := validKey(key); err != nil {
		return fmt.Errorf("storage: variable name %q unusable as key: %w", v.Name, err)
	}
	if w.seen[v.Name] {
		return fmt.Errorf("storage: duplicate variable %q in archive %q", v.Name, w.name)
	}
	blob := encoding.AppendCRC(EncodeVariable(v))
	if err := w.st.Put(ctx, key, blob); err != nil {
		return err
	}
	w.seen[v.Name] = true
	w.sections = encoding.PutSection(w.sections, []byte(v.Name))
	w.count++
	w.bytes += int64(len(blob))
	return nil
}

// StoredBytes returns the variable-blob bytes written so far (CRC trailers
// included; the manifest is not counted).
func (w *ArchiveWriter) StoredBytes() int64 { return w.bytes }

// Close writes the manifest, committing the archive. Closing twice is an
// error; a writer that is never closed publishes nothing.
func (w *ArchiveWriter) Close(ctx context.Context) error {
	if w.closed {
		return fmt.Errorf("storage: archive %q already closed", w.name)
	}
	w.closed = true
	manifest := make([]byte, 0, len(archiveMagic)+4+len(w.sections)+encoding.CRCSize)
	manifest = append(manifest, archiveMagic...)
	manifest = binary.LittleEndian.AppendUint32(manifest, w.count)
	manifest = append(manifest, w.sections...)
	return w.st.Put(ctx, w.name+".manifest", encoding.AppendCRC(manifest))
}

// FieldSource supplies the raw data of field i to RefactorTo, so inputs
// can be loaded lazily (e.g. one file at a time) instead of held together
// in memory.
type FieldSource func(i int) ([]float64, error)

// RefactorTo is the streaming form of core.RefactorVariables +
// WriteArchive: fields are loaded, refactored and flushed to the store one
// variable at a time — each variable using the full opt.Workers encode
// budget — with the manifest written last, so packing a dataset never holds
// more than one variable's planes (plus one raw field) in RAM and a crash
// mid-pack leaves the store readable. The resulting store contents are
// byte-identical to the in-memory path. It returns the total variable-blob
// bytes written.
func RefactorTo(ctx context.Context, st Store, name string, names []string, dims []int, opt core.RefactorOptions, src FieldSource) (int64, error) {
	w, err := NewArchiveWriter(st, name)
	if err != nil {
		return 0, err
	}
	for i, vname := range names {
		data, err := src(i)
		if err != nil {
			return w.StoredBytes(), fmt.Errorf("storage: load field %s: %w", vname, err)
		}
		vars, err := core.RefactorVariables([]string{vname}, [][]float64{data}, dims, opt)
		if err != nil {
			return w.StoredBytes(), err
		}
		if err := w.WriteVariable(ctx, vars[0]); err != nil {
			return w.StoredBytes(), err
		}
	}
	if err := w.Close(ctx); err != nil {
		return w.StoredBytes(), err
	}
	return w.StoredBytes(), nil
}
