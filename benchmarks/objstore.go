package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"progqoi"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
	"progqoi/internal/storage/objstore/miniobj"
)

// objstoreBench is do-objstore-s3d: the stateless tier. The dataset and
// ladder of do-cluster3-s3d, but the archive lives in an in-process
// miniobj bucket and every fragment is one signed ranged GET.
type objstoreBench struct {
	*ladder
	bucket *miniobj.Server
	tr     *http.Transport
	hc     *http.Client
}

const (
	objBucket = "bench"
	objPrefix = "archives/v1"
	objAccess = "AKIDBENCH"
	objSecret = "bench-secret/with+chars"
)

func (b *objstoreBench) store(cacheBytes int64) (*objstore.Store, error) {
	return objstore.New(objstore.Options{
		Endpoint: b.bucket.URL(), Bucket: objBucket, Prefix: objPrefix,
		AccessKey: objAccess, SecretKey: objSecret,
		HTTPClient: b.hc, CacheBytes: cacheBytes,
	})
}

func setupObjstore(ctx context.Context, cfg config) (instance, error) {
	l, err := newLadder(ctx, cfg, "s3d", s3dDataset(cfg))
	if err != nil {
		return nil, err
	}
	b := &objstoreBench{ladder: l}
	b.bucket = miniobj.New(objBucket, miniobj.Credentials{AccessKey: objAccess, SecretKey: objSecret})
	b.tr, b.hc = keepAliveClient(nil)
	seed, err := b.store(0)
	if err == nil {
		err = l.writeArchive(ctx, seed)
	}
	if err != nil {
		b.close() //nolint:errcheck // the set-up error is the one to report
		return nil, err
	}
	ref := fmt.Sprintf("s3://%s/%s/%s", objBucket, objPrefix, l.dataset)
	l.open = func(ctx context.Context) (*progqoi.Archive, error) {
		return progqoi.Open(ctx, ref, progqoi.WithS3Endpoint(b.bucket.URL()), progqoi.WithS3Credentials(objAccess, objSecret),
			progqoi.WithCache(-1), progqoi.WithHTTPClient(b.hc))
	}
	l.openMetric = "storage.open_ranged_s"
	l.counters = func(a *progqoi.Archive) map[string]float64 {
		s := a.StoreStats()
		return map[string]float64{
			"objstore.cold_fetches": float64(s.ColdFetches),
			"objstore.cold_mb":      float64(s.ColdFetchBytes) / 1e6,
			"objstore.cold_fetch_s": s.ColdFetchSeconds,
		}
	}
	return b, nil
}

func (b *objstoreBench) phaseBegin() {}

func (b *objstoreBench) phaseEnd(context.Context, int) (map[string]float64, error) { return nil, nil }

func (b *objstoreBench) close() error {
	b.bucket.Close()
	b.tr.CloseIdleConnections()
	return nil
}

func (b *objstoreBench) probes(ctx context.Context, rec *recorder, reps int, _ time.Duration) (map[string]float64, error) {
	out, err := b.decodeProbes(ctx, rec, reps)
	if err != nil {
		return nil, err
	}
	// The op's byte ranges: the consumed fragment prefix of every variable,
	// located the way Open locates them.
	st, err := b.store(-1)
	if err != nil {
		return nil, err
	}
	vars, ranges, err := storage.ReadArchiveRanged(ctx, st, b.dataset)
	if err != nil {
		return nil, err
	}
	var perCall, mallocs []float64
	for r := 0; r < reps; r++ {
		calls := 0
		sp := rec.begin("objstore.Store.GetRange", -1, probeOp)
		_, m := allocDelta(func() {
			for v, vr := range vars {
				key := storage.VarKey(b.dataset, vr.Name)
				for _, fr := range ranges[v][:b.consumed[v]] {
					if _, gerr := st.GetRange(ctx, key, fr.Off, fr.Len); gerr != nil {
						err = gerr
					}
					calls++
				}
			}
		})
		elapsed := rec.end(sp)
		if err != nil {
			return nil, err
		}
		perCall = append(perCall, float64(elapsed)/float64(time.Microsecond)/float64(calls))
		mallocs = append(mallocs, float64(m)/float64(calls))
	}
	out["objstore.getrange_us"] = medianF(perCall)
	out["objstore.getrange_mallocs"] = medianF(mallocs)
	return out, nil
}
