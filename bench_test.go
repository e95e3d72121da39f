package progqoi

// bench_test.go is the benchmark harness of deliverable (d): one benchmark
// per paper table/figure (regenerating its tables at benchmark scale; an
// experiment error fails the benchmark), plus ablation benchmarks for the
// design decisions ARCHITECTURE.md describes. The paper's shapes are
// asserted by internal/experiments' tests, not here.
// `go test -bench=. -benchmem` runs everything; cmd/experiments prints the
// full-scale rows.

import (
	"context"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/experiments"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
	"progqoi/internal/stats"
)

var quick = experiments.Opts{Quick: true}

func benchExperiment(b *testing.B, fn func(context.Context, experiments.Opts) ([]*stats.Table, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fn(context.Background(), quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_Datasets regenerates the dataset inventory (Table III).
func BenchmarkTable3_Datasets(b *testing.B) { benchExperiment(b, experiments.Table3) }

// BenchmarkFig2_CompressorBitrates regenerates the requested-error vs
// bitrate comparison of the four progressive compressors (Fig. 2).
func BenchmarkFig2_CompressorBitrates(b *testing.B) { benchExperiment(b, experiments.Fig2) }

// BenchmarkFig3_BasisEstimates regenerates the OB vs HB requested /
// estimated / real error comparison (Fig. 3).
func BenchmarkFig3_BasisEstimates(b *testing.B) { benchExperiment(b, experiments.Fig3) }

// BenchmarkFig4_GEQoIControl regenerates QoI error control on GE-small for
// Equations (1)–(6) (Fig. 4).
func BenchmarkFig4_GEQoIControl(b *testing.B) { benchExperiment(b, experiments.Fig4) }

// BenchmarkFig5_NYXHurricaneVTOT regenerates total-velocity error control
// on NYX and Hurricane (Fig. 5).
func BenchmarkFig5_NYXHurricaneVTOT(b *testing.B) { benchExperiment(b, experiments.Fig5) }

// BenchmarkFig6_S3DMolarProducts regenerates molar-concentration product
// control on S3D (Fig. 6).
func BenchmarkFig6_S3DMolarProducts(b *testing.B) { benchExperiment(b, experiments.Fig6) }

// BenchmarkFig7_RetrievalEfficiencyGE regenerates the per-method bitrate
// comparison on GE-small (Fig. 7).
func BenchmarkFig7_RetrievalEfficiencyGE(b *testing.B) { benchExperiment(b, experiments.Fig7) }

// BenchmarkFig8_RetrievalEfficiencyS3D regenerates the per-method bitrate
// comparison on S3D (Fig. 8).
func BenchmarkFig8_RetrievalEfficiencyS3D(b *testing.B) { benchExperiment(b, experiments.Fig8) }

// BenchmarkTable4_RefactorRetrieveTime regenerates the wall-time table
// (Table IV).
func BenchmarkTable4_RefactorRetrieveTime(b *testing.B) { benchExperiment(b, experiments.Table4) }

// BenchmarkFig9_RemoteTransfer regenerates the remote-transfer experiment
// over the simulated Globus link (Fig. 9).
func BenchmarkFig9_RemoteTransfer(b *testing.B) { benchExperiment(b, experiments.Fig9) }

// --- Ablation benchmarks: each design decision against its alternative ---

func ablationDataset() *datagen.Dataset { return datagen.GE("GE-ablate", 16, 256, 77) }

func retrieveVTOT(b *testing.B, vars []*core.Variable, cfg core.Config, rel float64, ds *datagen.Dataset) int64 {
	b.Helper()
	rt, err := core.NewRetriever(vars, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	vtot := []qoi.QoI{ds.QoIs[0]}
	ranges := core.QoIRanges(vtot, ds.Fields)
	res, err := rt.Retrieve(context.Background(), core.Request{Targets: []core.Target{
		{QoI: vtot[0], Tolerance: rel, Relative: true, Range: ranges[0]},
	}})
	if err != nil {
		b.Fatal(err)
	}
	return res.RetrievedBytes
}

func refactorFor(b *testing.B, ds *datagen.Dataset, m progressive.Method, order progressive.Order) []*core.Variable {
	b.Helper()
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: m, LosslessTail: true, Order: order},
		MaskZeros:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return vars
}

// BenchmarkAblationBasisOB vs ...HB: the decomposition-basis choice (§V-B);
// HB should retrieve fewer bytes and refactor faster.
func BenchmarkAblationBasisOB(b *testing.B) {
	ds := ablationDataset()
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		vars := refactorFor(b, ds, progressive.PMGARD, progressive.GreedyOrder)
		bytes = retrieveVTOT(b, vars, core.Config{}, 1e-4, ds)
	}
	b.ReportMetric(float64(bytes), "bytes/retrieval")
}

// BenchmarkAblationBasisHB is the hierarchical-basis counterpart.
func BenchmarkAblationBasisHB(b *testing.B) {
	ds := ablationDataset()
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		vars := refactorFor(b, ds, progressive.PMGARDHB, progressive.GreedyOrder)
		bytes = retrieveVTOT(b, vars, core.Config{}, 1e-4, ds)
	}
	b.ReportMetric(float64(bytes), "bytes/retrieval")
}

// BenchmarkAblationFragmentOrderGreedy vs ...LevelMajor: the PMGARD
// fragment schedule (greedy benefit-per-byte vs naive level-major).
func BenchmarkAblationFragmentOrderGreedy(b *testing.B) {
	ds := ablationDataset()
	vars := refactorFor(b, ds, progressive.PMGARDHB, progressive.GreedyOrder)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = retrieveVTOT(b, vars, core.Config{}, 1e-2, ds)
	}
	b.ReportMetric(float64(bytes), "bytes/retrieval")
}

// BenchmarkAblationFragmentOrderLevelMajor is the naive-order counterpart.
func BenchmarkAblationFragmentOrderLevelMajor(b *testing.B) {
	ds := ablationDataset()
	vars := refactorFor(b, ds, progressive.PMGARDHB, progressive.LevelMajorOrder)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = retrieveVTOT(b, vars, core.Config{}, 1e-2, ds)
	}
	b.ReportMetric(float64(bytes), "bytes/retrieval")
}

// BenchmarkAblationTighten sweeps Algorithm 4's tightening factor c.
func BenchmarkAblationTighten(b *testing.B) {
	ds := ablationDataset()
	for _, c := range []float64{1.1, 1.5, 2.0, 4.0} {
		b.Run(benchName(c), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				vars := refactorFor(b, ds, progressive.PMGARDHB, progressive.GreedyOrder)
				bytes = retrieveVTOT(b, vars, core.Config{TightenFactor: c}, 1e-4, ds)
			}
			b.ReportMetric(float64(bytes), "bytes/retrieval")
		})
	}
}

func benchName(c float64) string {
	switch c {
	case 1.1:
		return "c=1.1"
	case 1.5:
		return "c=1.5"
	case 2.0:
		return "c=2.0"
	default:
		return "c=4.0"
	}
}

// BenchmarkAblationMaskOn vs ...Off: the exact-zero outlier mask (§V-A).
func BenchmarkAblationMaskOn(b *testing.B) {
	ds := ablationDataset()
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		vars := refactorFor(b, ds, progressive.PMGARDHB, progressive.GreedyOrder)
		bytes = retrieveVTOT(b, vars, core.Config{}, 1e-3, ds)
	}
	b.ReportMetric(float64(bytes), "bytes/retrieval")
}

// BenchmarkAblationMaskOff refactors without the mask; sqrt estimates at
// near-zero radicands force deeper retrieval.
func BenchmarkAblationMaskOff(b *testing.B) {
	ds := ablationDataset()
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
			Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true, Order: progressive.GreedyOrder},
		})
		if err != nil {
			b.Fatal(err)
		}
		rt, err := core.NewRetriever(vars, core.Config{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		vtot := []qoi.QoI{ds.QoIs[0]}
		ranges := core.QoIRanges(vtot, ds.Fields)
		res, _ := rt.Retrieve(context.Background(), core.Request{Targets: []core.Target{
			{QoI: vtot[0], Tolerance: 1e-3, Relative: true, Range: ranges[0]},
		}})
		if res != nil {
			bytes = res.RetrievedBytes
		}
	}
	b.ReportMetric(float64(bytes), "bytes/retrieval")
}

// BenchmarkAblationEstimatorTheorem: the paper's theorem-based QoI error
// estimator, as shipped (the request's compiled program).
func BenchmarkAblationEstimatorTheorem(b *testing.B) {
	ds := ablationDataset()
	vars := refactorFor(b, ds, progressive.PMGARDHB, progressive.GreedyOrder)
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = retrieveVTOT(b, vars, core.Config{}, 1e-4, ds)
	}
	b.ReportMetric(float64(bytes), "bytes/retrieval")
}

// BenchmarkEndToEndRefactorGESmall times Algorithm 1 on the full GE-small
// stand-in with the default method.
func BenchmarkEndToEndRefactorGESmall(b *testing.B) {
	ds := datagen.GESmall()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
			Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
			MaskZeros:   true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndRetrieveVTOT times one full QoI-certified retrieval at
// τ_rel = 1e-4 on GE-small.
func BenchmarkEndToEndRetrieveVTOT(b *testing.B) {
	ds := datagen.GESmall()
	vars := refactorFor(b, ds, progressive.PMGARDHB, progressive.GreedyOrder)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retrieveVTOT(b, vars, core.Config{}, 1e-4, ds)
	}
}
