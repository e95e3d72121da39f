package core

import (
	"context"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
)

// BenchmarkGELadder is one consumer op of the repository benchmark's
// do-local-ge workload, in process: a new session over GE(200, 320)
// certifying all six GE QoIs at relative 1e-1 … 1e-5 in turn.
func BenchmarkGELadder(b *testing.B) {
	ds := datagen.GE("ge", 200, 320, 1)
	vars, err := RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := NewRetriever(vars, Config{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, rel := range retrieveLadder[:5] {
			tols := make([]float64, len(ds.QoIs))
			for k := range tols {
				tols[k] = rel * ranges[k]
			}
			if _, err := rt.Retrieve(context.Background(), Request{QoIs: ds.QoIs, Tolerances: tols}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
