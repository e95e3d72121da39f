package main

import (
	"context"
	"path/filepath"
	"time"

	"progqoi"
	"progqoi/internal/datagen"
	"progqoi/internal/storage"
)

// localBench is do-local-ge: the consumer path with no transport. The GE
// stand-in is packed into a DirStore once in set-up; one op opens it by
// file:// reference and climbs the ladder on all six GE QoIs.
type localBench struct {
	*ladder
}

func setupLocal(ctx context.Context, cfg config) (instance, error) {
	blocks, blockSize := 200, 320
	if cfg.size == toySize {
		blocks, blockSize = 6, 100
	}
	l, err := newLadder(ctx, cfg, "ge", datagen.GE("ge", blocks, blockSize, cfg.seed))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workDir, "local-store")
	st, err := storage.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	if err := l.writeArchive(ctx, st); err != nil {
		return nil, err
	}
	ref := "file://" + dir + "/" + l.dataset
	l.open = func(ctx context.Context) (*progqoi.Archive, error) { return progqoi.Open(ctx, ref) }
	l.openMetric = "storage.open_s"
	return &localBench{l}, nil
}

func (b *localBench) phaseBegin() {}

func (b *localBench) phaseEnd(context.Context, int) (map[string]float64, error) { return nil, nil }

func (b *localBench) close() error { return nil }

func (b *localBench) probes(ctx context.Context, rec *recorder, reps int, baseline time.Duration) (map[string]float64, error) {
	out, err := b.decodeProbes(ctx, rec, reps)
	if err != nil {
		return nil, err
	}
	var single []time.Duration
	for r := 0; r < reps; r++ {
		res := b.opWith(ctx, nil, probeOp, progqoi.WithWorkers(1))
		if res.err != nil {
			return nil, res.err
		}
		single = append(single, res.latency)
	}
	out["core.do_speedup_workers"] = percentile(single, 50).Seconds() / baseline.Seconds()
	return out, nil
}
