// Package experiments regenerates every table and figure of the paper's
// evaluation (§V-B exploration and §VI) on the synthetic stand-in datasets:
// the same sweeps and series, returned as stats.Tables with one panel of a
// figure per table. An experiment that fails returns its error, not a
// table. cmd/experiments prints the tables, and the root package's
// bench_test.go times each experiment.
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data). The shapes the paper argues from are asserted on the typed cells
// by this package's tests (TestFig3EstimateDominatesReal,
// TestFigs4to6Certified, TestFigs7and8PMGARDHBMonotone, TestFig9BeatsRaw).
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/netsim"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
	"progqoi/internal/stats"
)

// Opts scales the experiments. Quick shrinks datasets and sweeps so the
// whole suite runs in seconds (used by the benchmarks); the default matches
// the scaled-down evaluation configuration.
type Opts struct {
	Quick bool
}

func (o Opts) geSmall() *datagen.Dataset {
	if o.Quick {
		return datagen.GE("GE-small", 24, 256, 42)
	}
	return datagen.GESmall()
}

func (o Opts) geLarge() (*datagen.Dataset, int) {
	if o.Quick {
		return datagen.GE("GE-large", 16, 1024, 43), 16
	}
	return datagen.GELarge(), 96
}

func (o Opts) hurricane() *datagen.Dataset {
	if o.Quick {
		return datagen.Hurricane(8, 24, 24, 44)
	}
	return datagen.HurricaneSmall()
}

func (o Opts) nyx() *datagen.Dataset {
	if o.Quick {
		return datagen.NYX(16, 16, 16, 45)
	}
	return datagen.NYXSmall()
}

func (o Opts) s3d() *datagen.Dataset {
	if o.Quick {
		return datagen.S3D(12, 16, 10, 46)
	}
	return datagen.S3DSmall()
}

// sweep returns the requested relative tolerances τᵢ = 0.1·2⁻ⁱ.
func (o Opts) sweep(n int) []float64 {
	step := 1
	if o.Quick {
		step = 4
	}
	var out []float64
	for i := 0; i < n; i += step {
		out = append(out, 0.1*math.Pow(2, -float64(i)))
	}
	return out
}

var methodsAll = []progressive.Method{
	progressive.PSZ3, progressive.PSZ3Delta, progressive.PMGARD, progressive.PMGARDHB,
}

var methodsFig7 = []progressive.Method{
	progressive.PSZ3, progressive.PSZ3Delta, progressive.PMGARDHB,
}

// Table3 is the dataset inventory (paper Table III, at stand-in scale).
func Table3(ctx context.Context, o Opts) ([]*stats.Table, error) {
	t := &stats.Table{
		Title:  "Table III: Datasets and QoIs (synthetic stand-ins)",
		Header: []string{"Dataset", "Dimensions", "nv", "Type", "Size", "QoIs"},
	}
	add := func(ds *datagen.Dataset, qoiDesc string) {
		dims := make([]string, len(ds.Dims))
		for i, d := range ds.Dims {
			dims[i] = fmt.Sprint(d)
		}
		t.AddRow(ds.Name, strings.Join(dims, "x"), len(ds.Fields), "double",
			fmt.Sprintf("%.2f MB", float64(ds.TotalBytes())/1e6), qoiDesc)
	}
	add(o.geSmall(), "Eq.(1)-(6)")
	add(o.hurricane(), "Total velocity")
	add(o.nyx(), "Total velocity")
	add(o.s3d(), "Molar concentration multiplication")
	gl, _ := o.geLarge()
	add(gl, "Eq.(1)-(6)")
	return []*stats.Table{t}, nil
}

// fig2Fields are the fields the paper plots in Figs. 2–3.
var fig2Fields = []string{"VelocityX", "VelocityZ", "Pressure", "Density"}

// fieldSweep is the Figs. 2–3 protocol: on each GE-small field, one
// progressive session per method advances through successively tighter
// primary-data bounds. A field's table has a row per requested relative
// bound: the bound, then per method the cells report gives for the session
// at that point.
func fieldSweep(ctx context.Context, o Opts, fig, title string, header []string,
	methods []progressive.Method, tail bool,
	report func(rd *progressive.Reader, data []float64, rng, bound float64) ([]any, error),
) ([]*stats.Table, error) {
	ds := o.geSmall()
	targets := o.sweep(20)
	var tables []*stats.Table
	for _, fname := range fig2Fields {
		data := ds.Field(fname)
		rng := stats.Range(data)
		t := &stats.Table{Title: "Fig. " + fig + ": " + title + " [" + fname + "]", Header: header}
		for _, rel := range targets {
			t.AddRow(rel)
		}
		for _, m := range methods {
			ref, err := progressive.Refactor(data, ds.Dims, progressive.Options{Method: m, LosslessTail: tail})
			if err != nil {
				return nil, fmt.Errorf("fig%s: %w", fig, err)
			}
			rd, err := progressive.NewReader(ref, nil)
			if err != nil {
				return nil, fmt.Errorf("fig%s: %w", fig, err)
			}
			for i, rel := range targets {
				bound, err := rd.Advance(ctx, rel*rng)
				if err != nil {
					return nil, fmt.Errorf("fig%s: %s %v rel=%g: %w", fig, fname, m, rel, err)
				}
				cells, err := report(rd, data, rng, bound)
				if err != nil {
					return nil, fmt.Errorf("fig%s: %s %v rel=%g: %w", fig, fname, m, rel, err)
				}
				t.Rows[i] = append(t.Rows[i], cells...)
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig2 reports the bitrate each compressor needs for each requested
// primary-data bound (paper Fig. 2).
func Fig2(ctx context.Context, o Opts) ([]*stats.Table, error) {
	return fieldSweep(ctx, o, "2", "requested PD relative error vs bitrate (bits/value), per compressor",
		[]string{"rel_eb", "PSZ3", "PSZ3-delta", "PMGARD", "PMGARD-HB"}, methodsAll, true,
		func(rd *progressive.Reader, data []float64, _, _ float64) ([]any, error) {
			return []any{stats.Bitrate(rd.RetrievedBytes(), len(data))}, nil
		})
}

// Fig3 compares the orthogonal (OB) and hierarchical (HB) bases: requested
// tolerance vs the estimated bound vs the real error (paper Fig. 3).
func Fig3(ctx context.Context, o Opts) ([]*stats.Table, error) {
	return fieldSweep(ctx, o, "3", "requested vs estimated vs real PD error, OB (PMGARD) vs HB (PMGARD-HB)",
		[]string{"rel_tol", "bitrate(OB)", "est(OB)", "real(OB)", "bitrate(HB)", "est(HB)", "real(HB)"},
		[]progressive.Method{progressive.PMGARD, progressive.PMGARDHB}, false,
		func(rd *progressive.Reader, data []float64, rng, bound float64) ([]any, error) {
			rec, err := rd.Data()
			if err != nil {
				return nil, err
			}
			return []any{stats.Bitrate(rd.RetrievedBytes(), len(data)), bound / rng,
				stats.MaxAbsError(data, rec) / rng}, nil
		})
}

// qoiSweep is the Figs. 4–6 protocol: on each dataset, a PMGARD-HB session
// per QoI sweeps requested relative QoI tolerances, and the QoI's table
// reports bitrate and the max estimated and max actual relative errors.
func qoiSweep(ctx context.Context, o Opts, fig string, dss ...*datagen.Dataset) ([]*stats.Table, error) {
	var tables []*stats.Table
	for _, ds := range dss {
		ranges := core.QoIRanges(ds.QoIs, ds.Fields)
		vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
			Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
			MaskZeros:   true,
		})
		if err != nil {
			return nil, fmt.Errorf("fig%s: %w", fig, err)
		}
		ne := ds.NumElements()
		for k, q := range ds.QoIs {
			rt, err := core.NewRetriever(vars, core.Config{}, nil)
			if err != nil {
				return nil, fmt.Errorf("fig%s: %w", fig, err)
			}
			t := &stats.Table{
				Title: fmt.Sprintf("Fig. %s: max estimated / actual QoI errors vs requested (PMGARD-HB) [%s :: %s]",
					fig, ds.Name, q.Name),
				Header: []string{"req_rel_tol", "bitrate", "max_est_rel", "max_actual_rel"},
			}
			for _, rel := range o.sweep(20) {
				res, err := rt.Retrieve(ctx, core.Request{Targets: []core.Target{
					{QoI: q, Tolerance: rel, Relative: true, Range: ranges[k]},
				}})
				if err != nil {
					return nil, fmt.Errorf("fig%s: %s %s rel=%g: %w", fig, ds.Name, q.Name, rel, err)
				}
				actual := core.ActualQoIErrors([]qoi.QoI{q}, ds.Fields, res.Data)
				t.AddRow(rel, stats.Bitrate(res.RetrievedBytes, ne), res.EstErrors[0]/ranges[k], actual[0]/ranges[k])
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// Fig4 is the GE-small QoI error-control experiment (paper Fig. 4).
func Fig4(ctx context.Context, o Opts) ([]*stats.Table, error) {
	return qoiSweep(ctx, o, "4", o.geSmall())
}

// Fig5 runs the same protocol for total velocity on NYX and Hurricane
// (paper Fig. 5).
func Fig5(ctx context.Context, o Opts) ([]*stats.Table, error) {
	return qoiSweep(ctx, o, "5", o.nyx(), o.hurricane())
}

// Fig6 runs the molar-concentration products on S3D (paper Fig. 6).
func Fig6(ctx context.Context, o Opts) ([]*stats.Table, error) {
	return qoiSweep(ctx, o, "6", o.s3d())
}

// retrievalEfficiency implements Figs. 7–8: for each QoI and each method, a
// fresh session per requested tolerance (the paper's single-request
// "generic case"), reporting bitrate.
func retrievalEfficiency(ctx context.Context, o Opts, fig string, ds *datagen.Dataset) ([]*stats.Table, error) {
	ranges := core.QoIRanges(ds.QoIs, ds.Fields)
	targets := o.sweep(20)
	if !o.Quick {
		// Fresh sessions per point are expensive; halve the sweep density.
		for i := range (len(targets) + 1) / 2 {
			targets[i] = targets[2*i]
		}
		targets = targets[:(len(targets)+1)/2]
	}
	refs := map[progressive.Method][]*core.Variable{}
	for _, m := range methodsFig7 {
		vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
			Progressive: progressive.Options{Method: m, LosslessTail: true},
			MaskZeros:   true,
		})
		if err != nil {
			return nil, fmt.Errorf("fig%s: %w", fig, err)
		}
		refs[m] = vars
	}
	ne := ds.NumElements()
	var tables []*stats.Table
	for k, q := range ds.QoIs {
		t := &stats.Table{
			Title: fmt.Sprintf("Fig. %s: retrieval efficiency of progressive approaches, bitrate (bits/value) [%s :: %s]",
				fig, ds.Name, q.Name),
			Header: []string{"req_rel_tol", "PSZ3", "PSZ3-delta", "PMGARD-HB"},
		}
		for _, rel := range targets {
			row := []any{rel}
			for _, m := range methodsFig7 {
				rt, err := core.NewRetriever(refs[m], core.Config{}, nil)
				if err != nil {
					return nil, fmt.Errorf("fig%s: %w", fig, err)
				}
				res, err := rt.Retrieve(ctx, core.Request{Targets: []core.Target{
					{QoI: q, Tolerance: rel, Relative: true, Range: ranges[k]},
				}})
				if err != nil {
					return nil, fmt.Errorf("fig%s: %s %s %v rel=%g: %w", fig, ds.Name, q.Name, m, rel, err)
				}
				row = append(row, stats.Bitrate(res.RetrievedBytes, ne))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig7 is retrieval efficiency on GE-small (paper Fig. 7).
func Fig7(ctx context.Context, o Opts) ([]*stats.Table, error) {
	return retrievalEfficiency(ctx, o, "7", o.geSmall())
}

// Fig8 is retrieval efficiency on S3D (paper Fig. 8).
func Fig8(ctx context.Context, o Opts) ([]*stats.Table, error) {
	return retrievalEfficiency(ctx, o, "8", o.s3d())
}

// Table4 measures refactor and retrieval wall time per method for the VTOT
// QoI at tolerances 1e-1..1e-5 (paper Table IV).
func Table4(ctx context.Context, o Opts) ([]*stats.Table, error) {
	ds := o.geSmall()
	vtot := ds.QoIs[0]
	ranges := core.QoIRanges([]qoi.QoI{vtot}, ds.Fields)
	t := &stats.Table{
		Title:  "Table IV: refactor and retrieval time (seconds), VTOT on GE-small",
		Header: []string{"Compressor", "Refactoring(s)", "1E-1", "1E-2", "1E-3", "1E-4", "1E-5"},
	}
	for _, m := range methodsFig7 {
		start := time.Now()
		vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
			Progressive: progressive.Options{Method: m, LosslessTail: true},
			MaskZeros:   true,
		})
		if err != nil {
			return nil, fmt.Errorf("table4: %w", err)
		}
		row := []any{m.String(), time.Since(start).Seconds()}
		for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
			rt, err := core.NewRetriever(vars, core.Config{}, nil)
			if err != nil {
				return nil, fmt.Errorf("table4: %w", err)
			}
			start := time.Now()
			if _, err := rt.Retrieve(ctx, core.Request{Targets: []core.Target{
				{QoI: vtot, Tolerance: rel, Relative: true, Range: ranges[0]},
			}}); err != nil {
				return nil, fmt.Errorf("table4: %v rel=%g: %w", m, rel, err)
			}
			row = append(row, time.Since(start).Seconds())
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}, nil
}

// Fig9 runs the remote-transfer experiment: per-block QoI retrieval over a
// simulated Globus-class link, versus shipping the raw velocity fields
// (paper Fig. 9). The title carries the raw baseline and the refactor time.
func Fig9(ctx context.Context, o Opts) ([]*stats.Table, error) {
	ds, workers := o.geLarge()
	blockSize := ds.NumElements() / workers
	// VTOT uses the velocity components only: 3 of the 5 fields.
	rawBytes := int64(ds.NumElements()) * 8 * 3
	// Calibrate the link so the raw baseline is the paper's ≈11.7 s at this
	// (possibly scaled) data size.
	link := netsim.DefaultGlobusLink
	link.BandwidthBps = float64(rawBytes) / 11.7

	// Refactor each block independently (one block per core, like the paper).
	refactorStart := time.Now()
	fields := make([][][]float64, workers)
	blocks := make([][]*core.Variable, workers)
	for b := range workers {
		for f := range 3 {
			fields[b] = append(fields[b], ds.Fields[f][b*blockSize:(b+1)*blockSize])
		}
		vars, err := core.RefactorVariables(ds.FieldNames[:3], fields[b], []int{blockSize}, core.RefactorOptions{
			Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
			MaskZeros:   true,
		})
		if err != nil {
			return nil, fmt.Errorf("fig9: %w", err)
		}
		blocks[b] = vars
	}
	refactorTime := time.Since(refactorStart)

	rawTime := netsim.RawTransferTime(rawBytes, workers, link)
	t := &stats.Table{
		Title: fmt.Sprintf("Fig. 9: data transfer time over simulated Globus link (%d workers, PMGARD-HB)\n"+
			"raw transfer baseline: %.2f s for %.2f MB; refactoring took %.2f s",
			workers, rawTime.Seconds(), float64(rawBytes)/1e6, refactorTime.Seconds()),
		Header: []string{"req_rel_tol(VTOT)", "retrieved_MB", "transfer_time(s)", "speedup_vs_raw"},
	}
	vtot := qoi.TotalVelocity(0, 1, 2)
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		res, err := netsim.Run(workers, workers, link, func(b int, rec *netsim.Recorder) error {
			rt, err := core.NewRetriever(blocks[b], core.Config{}, rec.Observe)
			if err != nil {
				return err
			}
			ranges := core.QoIRanges([]qoi.QoI{vtot}, fields[b])
			if ranges[0] == 0 {
				ranges[0] = 1
			}
			_, err = rt.Retrieve(ctx, core.Request{Targets: []core.Target{
				{QoI: vtot, Tolerance: rel, Relative: true, Range: ranges[0]},
			}})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig9: rel=%g: %w", rel, err)
		}
		t.AddRow(rel, float64(res.TotalBytes)/1e6, res.Makespan.Seconds(), rawTime.Seconds()/res.Makespan.Seconds())
	}
	return []*stats.Table{t}, nil
}

// All runs every experiment in order and returns their tables, stopping at
// the first error.
func All(ctx context.Context, o Opts) ([]*stats.Table, error) {
	var all []*stats.Table
	for _, run := range []func(context.Context, Opts) ([]*stats.Table, error){
		Table3, Fig2, Fig3, Fig4, Fig5, Fig6, Fig7, Fig8, Table4, Fig9,
	} {
		tables, err := run(ctx, o)
		if err != nil {
			return nil, err
		}
		all = append(all, tables...)
	}
	return all, nil
}
