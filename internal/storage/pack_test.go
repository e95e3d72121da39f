package storage

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
)

// packInto packs ds with method into a fresh MemStore.
func packInto(ds *datagen.Dataset, m progressive.Method) (*MemStore, error) {
	opt := core.RefactorOptions{
		Progressive: progressive.Options{Method: m, LosslessTail: true},
		MaskZeros:   true,
		Workers:     2,
	}
	st := NewMemStore()
	_, err := RefactorTo(context.Background(), st, "ds", ds.FieldNames, ds.Dims, opt,
		func(i int) ([]float64, error) { return ds.Fields[i], nil })
	return st, err
}

// TestConcurrentPacksDoNotShareBuffers: the pack path reuses its transform
// buffers (decomposition, group coefficients, magnitudes, plane slab)
// through package pools. Two packs of different shapes and bases running
// at once, three times over, must each write exactly what a pack running
// alone writes; a buffer handed to both, or one not cleared before reuse,
// would move a byte.
func TestConcurrentPacksDoNotShareBuffers(t *testing.T) {
	const rounds = 3
	packs := []struct {
		ds *datagen.Dataset
		m  progressive.Method
	}{
		{datagen.NYX(33, 17, 9, 2), progressive.PMGARDHB},
		{datagen.S3D(24, 32, 20, 1), progressive.PMGARD},
	}
	want := make([]string, len(packs))
	for i, p := range packs {
		st, err := packInto(p.ds, p.m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hashStore(t, st)
	}
	stores := make([][rounds]*MemStore, len(packs))
	errs := make([][rounds]error, len(packs))
	var wg sync.WaitGroup
	for i, p := range packs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				stores[i][r], errs[i][r] = packInto(p.ds, p.m)
			}
		}()
	}
	wg.Wait()
	for i, p := range packs {
		for r := range rounds {
			if errs[i][r] != nil {
				t.Fatal(errs[i][r])
			}
			if got := hashStore(t, stores[i][r]); got != want[i] {
				t.Errorf("%s/%v round %d: concurrent pack hashes %s, alone %s", p.ds.Name, p.m, r, got, want[i])
			}
		}
	}
}

// TestPackAllocContract bounds what RefactorTo allocates per call, after a
// warm-up, as a multiple of the raw bytes it packs: the fewest bytes any
// of five calls allocates, so a garbage collection that empties the pools
// mid-run does not count against the steady state. On a 32³ NYX field
// this reads 2.2× at the change that pooled the transform buffers and
// wrote each variable blob once, and 13–15× at its parent.
func TestPackAllocContract(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so allocation is not asserted")
	}
	const maxRawMultiple = 4
	ds := datagen.NYX(32, 32, 32, 1)
	names, field := ds.FieldNames[:1], ds.Fields[0]
	opt := core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	}
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pack := func() {
		if _, err := RefactorTo(context.Background(), st, "nyx", names, ds.Dims, opt,
			func(int) ([]float64, error) { return field, nil }); err != nil {
			t.Fatal(err)
		}
	}
	pack() // warm-up: fills the pools
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pack()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	raw := 8 * len(field)
	if got := float64(least) / float64(raw); got > maxRawMultiple {
		t.Errorf("RefactorTo allocates %d B per call, %.2f× the %d raw bytes (bound %d×)", least, got, raw, maxRawMultiple)
	} else {
		t.Logf("RefactorTo allocates %d B per call, %.2f× the %d raw bytes", least, got, raw)
	}
}
