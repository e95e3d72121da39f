package storage

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sync"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
)

// hashSession opens a session over vars, walks ladder (relative
// tolerances on every QoI of ds) and hashes each rung's RetrievedBytes,
// EstErrors and every variable's Data.
func hashSession(ds *datagen.Dataset, vars []*core.Variable, ladder []float64) (string, error) {
	rt, err := core.NewRetriever(vars, core.Config{Workers: 2}, nil)
	if err != nil {
		return "", err
	}
	ranges := core.QoIRanges(ds.QoIs, ds.Fields)
	h := sha256.New()
	var buf []byte
	for _, rel := range ladder {
		targets := make([]core.Target, len(ranges))
		for k := range targets {
			targets[k] = core.Target{QoI: ds.QoIs[k], Tolerance: rel * ranges[k]}
		}
		res, err := rt.Retrieve(context.Background(), core.Request{Targets: targets})
		if err != nil && !errors.Is(err, core.ErrExhausted) {
			return "", err
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(res.RetrievedBytes))
		for _, e := range res.EstErrors {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e))
		}
		for _, d := range res.Data {
			for _, x := range d {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestConcurrentSessionsDoNotShareBuffers: a session recomposes, masks and
// decodes into buffers of its own, while the variables it reads (blocks,
// fragments, zero masks) are shared with every other session over the
// archive. Two sessions over one opened archive, walking different
// ladders at once, three times over, must each hash as a session walking
// its ladder alone, under every method; a buffer handed to both, or a
// mask applied to shared memory, would move a bit.
func TestConcurrentSessionsDoNotShareBuffers(t *testing.T) {
	const rounds = 3
	ds := datagen.GE("GE", 40, 320, 1)
	ladders := [][]float64{{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}, {1e-3, 1e-5}}
	for _, m := range []progressive.Method{progressive.PMGARDHB, progressive.PMGARD, progressive.PSZ3, progressive.PSZ3Delta} {
		st, err := packInto(ds, m)
		if err != nil {
			t.Fatal(err)
		}
		vars, err := ReadArchive(context.Background(), st, "ds")
		if err != nil {
			t.Fatal(err)
		}
		if vars[0].ZeroMask == nil {
			t.Fatal("test needs a masked variable")
		}
		want := make([]string, len(ladders))
		for i, l := range ladders {
			if want[i], err = hashSession(ds, vars, l); err != nil {
				t.Fatal(err)
			}
		}
		got := make([][rounds]string, len(ladders))
		errs := make([][rounds]error, len(ladders))
		var wg sync.WaitGroup
		for i, l := range ladders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range rounds {
					got[i][r], errs[i][r] = hashSession(ds, vars, l)
				}
			}()
		}
		wg.Wait()
		for i := range ladders {
			for r := range rounds {
				if errs[i][r] != nil {
					t.Fatal(errs[i][r])
				}
				if got[i][r] != want[i] {
					t.Errorf("%v ladder %d round %d: concurrent session hashes %s, alone %s", m, i, r, got[i][r], want[i])
				}
			}
		}
	}
}
