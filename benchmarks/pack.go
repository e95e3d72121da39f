package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"progqoi/internal/bitplane"
	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/encoding"
	"progqoi/internal/grid"
	"progqoi/internal/mgard"
	"progqoi/internal/progressive"
	"progqoi/internal/storage"
)

// packBench is pack-nyx: one op is what `progqoi pack` does —
// storage.RefactorTo of the three NYX velocity fields into a fresh
// DirStore. The oracle is the SHA-256 of everything the op wrote against a
// Workers: 1 reference pack from set-up.
type packBench struct {
	cfg     config
	ds      *datagen.Dataset
	refHash string

	mu      sync.Mutex
	lastDir string // guarded by mu; newest archive, kept so the phase's last one can be reopened
	opened  bool   // guarded by mu; whether this phase's first archive was reopened
}

const packDataset = "nyx"

func setupPack(ctx context.Context, cfg config) (instance, error) {
	n := 64
	if cfg.size == toySize {
		n = 8
	}
	p := &packBench{cfg: cfg, ds: datagen.NYX(n, n, n, cfg.seed)}
	dir := filepath.Join(cfg.workDir, "pack-reference")
	if _, _, err := p.pack(ctx, dir, 1); err != nil {
		return nil, err
	}
	var err error
	if p.refHash, err = hashDir(dir); err != nil {
		return nil, err
	}
	return p, os.RemoveAll(dir)
}

// pack is the timed call of an untraced op.
func (p *packBench) pack(ctx context.Context, dir string, workers int) (time.Duration, int64, error) {
	start := time.Now()
	st, err := storage.NewDirStore(dir)
	if err != nil {
		return 0, 0, err
	}
	n, err := storage.RefactorTo(ctx, st, packDataset, p.ds.FieldNames, p.ds.Dims, refactorOptions(workers),
		func(i int) ([]float64, error) { return p.ds.Fields[i], nil })
	return time.Since(start), n, err
}

// packTraced does what RefactorTo does, call for call, with a span around
// each layer's entry point, and reports the split.
func (p *packBench) packTraced(ctx context.Context, rec *recorder, root, id int, dir string) (time.Duration, int64, map[string]float64, error) {
	var refactor, write time.Duration
	start := time.Now()
	st, err := storage.NewDirStore(dir)
	if err != nil {
		return 0, 0, nil, err
	}
	w, err := storage.NewArchiveWriter(st, packDataset)
	if err != nil {
		return 0, 0, nil, err
	}
	for i, name := range p.ds.FieldNames {
		sp := rec.begin("core.RefactorVariables "+name, root, id)
		vars, err := core.RefactorVariables([]string{name}, [][]float64{p.ds.Fields[i]}, p.ds.Dims, refactorOptions(0))
		refactor += rec.end(sp)
		if err != nil {
			return 0, 0, nil, err
		}
		sp = rec.begin("storage.ArchiveWriter.WriteVariable "+name, root, id)
		err = w.WriteVariable(ctx, vars[0])
		write += rec.end(sp)
		if err != nil {
			return 0, 0, nil, err
		}
	}
	sp := rec.begin("storage.ArchiveWriter.Close", root, id)
	err = w.Close(ctx)
	write += rec.end(sp)
	wall := time.Since(start)
	if err != nil {
		return 0, 0, nil, err
	}
	layers := map[string]float64{
		"core.refactor_s":  refactor.Seconds(),
		"storage.write_s":  write.Seconds(),
		"storage.write_mb": float64(w.StoredBytes()) / 1e6,
	}
	return wall, w.StoredBytes(), layers, nil
}

// verify holds the traced run to the split it reports: refactor plus write
// must be the traced op's wall time to within 10% (medians over the traced
// ops), or a layer is missing from the table.
func (p *packBench) verify(layers map[string]float64, tracedP50 time.Duration) error {
	if split := (layers["core.refactor_s"] + layers["storage.write_s"]) / tracedP50.Seconds(); math.Abs(split-1) > 0.10 {
		return fmt.Errorf("core.refactor_s + storage.write_s is %.1f%% of the traced op (want within 10%%)", 100*split)
	}
	return nil
}

func (p *packBench) rawBytes() int64 { return p.ds.TotalBytes() }

func (p *packBench) op(ctx context.Context, rec *recorder, id int) opResult {
	dir := filepath.Join(p.cfg.workDir, fmt.Sprintf("pack-%d", id))
	if id < 0 {
		dir = filepath.Join(p.cfg.workDir, fmt.Sprintf("pack-warmup%d", -id))
	}
	root := rec.begin(p.cfg.workload.Name, -1, id)
	defer rec.end(root)
	var out opResult
	if rec == nil {
		out.latency, out.bytes, out.err = p.pack(ctx, dir, 0)
	} else {
		out.latency, out.bytes, out.layers, out.err = p.packTraced(ctx, rec, root, id, dir)
	}
	if out.err != nil {
		os.RemoveAll(dir) //nolint:errcheck // scratch space
		return out
	}

	sp := rec.begin("oracle (untimed)", root, id)
	defer rec.end(sp)
	if p.cfg.corrupt && id >= 0 {
		f, err := os.OpenFile(filepath.Join(dir, packDataset+".manifest"), os.O_APPEND|os.O_WRONLY, 0)
		if err == nil {
			f.Write([]byte{0}) //nolint:errcheck // self-test damage
			f.Close()          //nolint:errcheck
		}
	}
	got, err := hashDir(dir)
	if err == nil && got != p.refHash {
		err = fmt.Errorf("archive hash %s differs from the Workers: 1 reference %s", got, p.refHash)
	}
	p.mu.Lock()
	first := !p.opened
	p.opened = true
	stale := p.lastDir
	p.lastDir = dir
	p.mu.Unlock()
	if err == nil && first && id >= 0 {
		err = certify(ctx, "file://"+dir+"/"+packDataset, p.ds)
	}
	if stale != "" {
		os.RemoveAll(stale) //nolint:errcheck // scratch space
	}
	out.err = err
	return out
}

func (p *packBench) phaseBegin() {
	p.mu.Lock()
	p.opened = false
	p.mu.Unlock()
}

// phaseEnd reopens the phase's last archive and certifies TotalVelocity at
// 1e-5 on it, as the op's oracle did for the first.
func (p *packBench) phaseEnd(ctx context.Context, _ int) (map[string]float64, error) {
	p.mu.Lock()
	dir := p.lastDir
	p.lastDir = ""
	p.mu.Unlock()
	if dir == "" {
		return nil, nil
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch space
	if p.cfg.corrupt {
		return nil, nil // the damaged manifest is already counted by the op's oracle
	}
	return nil, certify(ctx, "file://"+dir+"/"+packDataset, p.ds)
}

func (p *packBench) close() error {
	p.mu.Lock()
	dir := p.lastDir
	p.lastDir = ""
	p.mu.Unlock()
	if dir != "" {
		return os.RemoveAll(dir)
	}
	return nil
}

// probes replays each field through the encode-side layers one at a time.
// RefactorTo is sequential over variables and pooled within one, so the
// per-field times add up to the per-op figure.
func (p *packBench) probes(ctx context.Context, rec *recorder, reps int, baseline time.Duration) (map[string]float64, error) {
	workers := runtime.GOMAXPROCS(0)
	var decompose, encode, encodeMB, deflate, deflateMB, refactor, single []float64
	var calls, ratio float64
	for r := 0; r < reps; r++ {
		root := rec.begin("probes encode", -1, probeOp)
		var decT, encT, defT, refT time.Duration
		var encAlloc, defAlloc float64
		var in, outBytes, ncalls int
		for i, data := range p.ds.Fields {
			name := p.ds.FieldNames[i]
			g, err := grid.New(p.ds.Dims...)
			if err != nil {
				return nil, err
			}
			sp := rec.begin("mgard.Decompose "+name, root, probeOp)
			dec, err := mgard.Decompose(data, g, mgard.Hierarchical)
			decT += rec.end(sp)
			if err != nil {
				return nil, err
			}
			groups := make([][]float64, dec.NumGroups())
			for gi := range groups {
				groups[gi] = dec.Group(gi)
			}

			var blocks []*bitplane.Block
			sp = rec.begin("bitplane.EncodeAll "+name, root, probeOp)
			mb, _ := allocDelta(func() { blocks, err = bitplane.EncodeAll(groups, bitplane.DefaultPlanes, workers) })
			encT += rec.end(sp)
			encAlloc += mb
			if err != nil {
				return nil, err
			}

			// Every stored fragment is one Deflate call on a raw bitmap;
			// recover the bitmaps (untimed) and compress them again.
			var raws [][]byte
			for _, blk := range blocks {
				if blk.Exp == math.MinInt32 {
					continue
				}
				for _, frag := range append([][]byte{blk.Signs}, blk.Planes...) {
					raw, err := blk.RawBitmap(frag)
					if err != nil {
						return nil, err
					}
					raws = append(raws, raw)
				}
			}
			sp = rec.begin("encoding.Deflate "+name, root, probeOp)
			mb, _ = allocDelta(func() {
				for _, raw := range raws {
					c, derr := encoding.Deflate(raw, 6)
					if derr != nil {
						err = derr
					}
					in += len(raw)
					outBytes += len(c)
				}
			})
			defT += rec.end(sp)
			defAlloc += mb
			ncalls += len(raws)
			if err != nil {
				return nil, err
			}

			opt := refactorOptions(0).Progressive
			opt.Workers = workers
			sp = rec.begin("progressive.Refactor "+name, root, probeOp)
			_, err = progressive.Refactor(data, p.ds.Dims, opt)
			refT += rec.end(sp)
			if err != nil {
				return nil, err
			}
		}
		decompose = append(decompose, decT.Seconds())
		encode = append(encode, encT.Seconds())
		encodeMB = append(encodeMB, encAlloc)
		deflate = append(deflate, defT.Seconds())
		deflateMB = append(deflateMB, defAlloc)
		refactor = append(refactor, refT.Seconds())
		calls, ratio = float64(ncalls), float64(outBytes)/float64(in)

		dir := filepath.Join(p.cfg.workDir, "pack-workers1")
		sp := rec.begin("storage.RefactorTo Workers: 1", root, probeOp)
		d, _, err := p.pack(ctx, dir, 1)
		rec.end(sp)
		os.RemoveAll(dir) //nolint:errcheck // scratch space
		if err != nil {
			return nil, err
		}
		single = append(single, d.Seconds())
		rec.end(root)
	}
	return map[string]float64{
		"mgard.decompose_s":         medianF(decompose),
		"bitplane.encode_s":         medianF(encode),
		"bitplane.encode_alloc_mb":  medianF(encodeMB),
		"encoding.deflate_s":        medianF(deflate),
		"encoding.deflate_calls":    calls,
		"encoding.deflate_alloc_mb": medianF(deflateMB),
		"encoding.deflate_ratio":    ratio,
		"progressive.refactor_s":    medianF(refactor),
		"core.pack_speedup_workers": medianF(single) / baseline.Seconds(),
	}, nil
}

// hashDir is the SHA-256 over every file of dir in name order: names,
// sizes and contents.
func hashDir(dir string) (string, error) {
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
