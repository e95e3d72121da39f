// Package experiments regenerates every table and figure of the paper's
// evaluation (§V-B exploration and §VI) on the synthetic stand-in datasets:
// the same sweeps, the same series, printed as rows. cmd/experiments drives
// it from the command line and the repository-root benchmarks time it.
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data); the shapes the paper argues from are asserted in EXPERIMENTS.md.
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

// Table3 prints the dataset inventory (paper Table III, at stand-in scale).
func Table3(ctx context.Context, o Opts) string {
	t := &stats.Table{Header: []string{"Dataset", "Dimensions", "nv", "Type", "Size", "QoIs"}}
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
	return "Table III: Datasets and QoIs (synthetic stand-ins)\n" + t.String()
}

// fig2Fields are the fields the paper plots in Figs. 2–3.
var fig2Fields = []string{"VelocityX", "VelocityZ", "Pressure", "Density"}

// Fig2 sweeps successively tighter primary-data error bounds through a
// single progressive session per compressor and reports the resulting
// bitrate (paper Fig. 2).
func Fig2(ctx context.Context, o Opts) string {
	ds := o.geSmall()
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 2: requested PD relative error vs bitrate (bits/value), per compressor")
	targets := o.sweep(20)
	for _, fname := range fig2Fields {
		data := ds.Field(fname)
		rng := stats.Range(data)
		t := &stats.Table{Header: []string{"rel_eb", "PSZ3", "PSZ3-delta", "PMGARD", "PMGARD-HB"}}
		rows := make([][]float64, len(targets))
		for i := range rows {
			rows[i] = make([]float64, len(methodsAll))
		}
		for mi, m := range methodsAll {
			ref, err := progressive.Refactor(data, ds.Dims, progressive.Options{Method: m, LosslessTail: true})
			if err != nil {
				return "fig2: " + err.Error()
			}
			rd, err := progressive.NewReader(ref, nil)
			if err != nil {
				return "fig2: " + err.Error()
			}
			for ti, rel := range targets {
				if _, err := rd.Advance(ctx, rel*rng); err != nil {
					return "fig2: " + err.Error()
				}
				rows[ti][mi] = stats.Bitrate(rd.RetrievedBytes(), len(data))
			}
		}
		for ti, rel := range targets {
			t.AddRow(rel, rows[ti][0], rows[ti][1], rows[ti][2], rows[ti][3])
		}
		fmt.Fprintf(&b, "\n[%s]\n%s", fname, t.String())
	}
	return b.String()
}

// Fig3 compares the orthogonal (OB) and hierarchical (HB) bases: requested
// tolerance vs the estimated bound vs the real error (paper Fig. 3).
func Fig3(ctx context.Context, o Opts) string {
	ds := o.geSmall()
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 3: requested vs estimated vs real PD error, OB (PMGARD) vs HB (PMGARD-HB)")
	targets := o.sweep(20)
	for _, fname := range fig2Fields {
		data := ds.Field(fname)
		rng := stats.Range(data)
		t := &stats.Table{Header: []string{
			"rel_tol", "bitrate(OB)", "est(OB)", "real(OB)", "bitrate(HB)", "est(HB)", "real(HB)",
		}}
		type point struct{ bitrate, est, real float64 }
		series := map[progressive.Method][]point{}
		for _, m := range []progressive.Method{progressive.PMGARD, progressive.PMGARDHB} {
			ref, err := progressive.Refactor(data, ds.Dims, progressive.Options{Method: m})
			if err != nil {
				return "fig3: " + err.Error()
			}
			rd, err := progressive.NewReader(ref, nil)
			if err != nil {
				return "fig3: " + err.Error()
			}
			for _, rel := range targets {
				bound, err := rd.Advance(ctx, rel*rng)
				if err != nil {
					return "fig3: " + err.Error()
				}
				rec, err := rd.Data()
				if err != nil {
					return "fig3: " + err.Error()
				}
				series[m] = append(series[m], point{
					bitrate: stats.Bitrate(rd.RetrievedBytes(), len(data)),
					est:     bound / rng,
					real:    stats.MaxAbsError(data, rec) / rng,
				})
			}
		}
		ob, hb := series[progressive.PMGARD], series[progressive.PMGARDHB]
		for i, rel := range targets {
			t.AddRow(rel, ob[i].bitrate, ob[i].est, ob[i].real, hb[i].bitrate, hb[i].est, hb[i].real)
		}
		fmt.Fprintf(&b, "\n[%s]\n%s", fname, t.String())
	}
	return b.String()
}

// qoiSweep runs the Figs. 4–6 protocol on one dataset: a PMGARD-HB session
// per QoI, sweeping requested relative QoI tolerances and reporting the max
// estimated and max actual relative errors plus bitrate.
func qoiSweep(ctx context.Context, ds *datagen.Dataset, o Opts, nTargets int) (string, error) {
	ranges := core.QoIRanges(ds.QoIs, ds.Fields)
	targets := o.sweep(nTargets)
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	ne := ds.NumElements()
	for k, q := range ds.QoIs {
		rt, err := core.NewRetriever(vars, core.Config{}, nil)
		if err != nil {
			return "", err
		}
		t := &stats.Table{Header: []string{"req_rel_tol", "bitrate", "max_est_rel", "max_actual_rel"}}
		for _, rel := range targets {
			res, err := rt.Retrieve(ctx, core.Request{Targets: []core.Target{
				{QoI: q, Tolerance: rel, Relative: true, Range: ranges[k]},
			}})
			if err != nil {
				return "", fmt.Errorf("%s rel=%g: %w", q.Name, rel, err)
			}
			actual := core.ActualQoIErrors([]qoi.QoI{q}, ds.Fields, res.Data)
			t.AddRow(rel,
				stats.Bitrate(res.RetrievedBytes, ne),
				res.EstErrors[0]/ranges[k],
				actual[0]/ranges[k])
		}
		fmt.Fprintf(&b, "\n[%s :: %s]\n%s", ds.Name, q.Name, t.String())
	}
	return b.String(), nil
}

// Fig4 is the GE-small QoI error-control experiment (paper Fig. 4).
func Fig4(ctx context.Context, o Opts) string {
	out, err := qoiSweep(ctx, o.geSmall(), o, 20)
	if err != nil {
		return "fig4: " + err.Error()
	}
	return "Fig. 4: max estimated / actual QoI errors vs requested (PMGARD-HB, GE-small)" + out
}

// Fig5 runs the same protocol for total velocity on NYX and Hurricane
// (paper Fig. 5).
func Fig5(ctx context.Context, o Opts) string {
	var b strings.Builder
	fmt.Fprint(&b, "Fig. 5: max estimated / actual QoI errors vs requested (PMGARD-HB, NYX & Hurricane)")
	for _, ds := range []*datagen.Dataset{o.nyx(), o.hurricane()} {
		out, err := qoiSweep(ctx, ds, o, 20)
		if err != nil {
			return "fig5: " + err.Error()
		}
		b.WriteString(out)
	}
	return b.String()
}

// Fig6 runs the molar-concentration products on S3D (paper Fig. 6).
func Fig6(ctx context.Context, o Opts) string {
	out, err := qoiSweep(ctx, o.s3d(), o, 20)
	if err != nil {
		return "fig6: " + err.Error()
	}
	return "Fig. 6: max estimated / actual QoI errors vs requested (PMGARD-HB, S3D)" + out
}

// retrievalEfficiency implements Figs. 7–8: for each QoI and each method, a
// fresh session per requested tolerance (the paper's single-request
// "generic case"), reporting bitrate.
func retrievalEfficiency(ctx context.Context, ds *datagen.Dataset, o Opts, nTargets int) (string, error) {
	ranges := core.QoIRanges(ds.QoIs, ds.Fields)
	targets := o.sweep(nTargets)
	if !o.Quick {
		// Fresh sessions per point are expensive; halve the sweep density.
		targets = targets[:len(targets):len(targets)]
		kept := targets[:0]
		for i, v := range targets {
			if i%2 == 0 {
				kept = append(kept, v)
			}
		}
		targets = kept
	}
	refs := map[progressive.Method][]*core.Variable{}
	for _, m := range methodsFig7 {
		vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
			Progressive: progressive.Options{Method: m, LosslessTail: true},
			MaskZeros:   true,
		})
		if err != nil {
			return "", err
		}
		refs[m] = vars
	}
	ne := ds.NumElements()
	var b strings.Builder
	for k, q := range ds.QoIs {
		t := &stats.Table{Header: []string{"req_rel_tol", "PSZ3", "PSZ3-delta", "PMGARD-HB"}}
		for _, rel := range targets {
			row := make([]float64, len(methodsFig7))
			for mi, m := range methodsFig7 {
				rt, err := core.NewRetriever(refs[m], core.Config{}, nil)
				if err != nil {
					return "", err
				}
				res, err := rt.Retrieve(ctx, core.Request{Targets: []core.Target{
					{QoI: q, Tolerance: rel, Relative: true, Range: ranges[k]},
				}})
				if err != nil {
					return "", fmt.Errorf("%s %v rel=%g: %w", q.Name, m, rel, err)
				}
				row[mi] = stats.Bitrate(res.RetrievedBytes, ne)
			}
			t.AddRow(rel, row[0], row[1], row[2])
		}
		fmt.Fprintf(&b, "\n[%s :: %s] bitrate (bits/value)\n%s", ds.Name, q.Name, t.String())
	}
	return b.String(), nil
}

// Fig7 is retrieval efficiency on GE-small (paper Fig. 7).
func Fig7(ctx context.Context, o Opts) string {
	out, err := retrievalEfficiency(ctx, o.geSmall(), o, 20)
	if err != nil {
		return "fig7: " + err.Error()
	}
	return "Fig. 7: retrieval efficiency of progressive approaches (GE-small)" + out
}

// Fig8 is retrieval efficiency on S3D (paper Fig. 8).
func Fig8(ctx context.Context, o Opts) string {
	out, err := retrievalEfficiency(ctx, o.s3d(), o, 20)
	if err != nil {
		return "fig8: " + err.Error()
	}
	return "Fig. 8: retrieval efficiency of progressive approaches (S3D)" + out
}

// Table4 measures refactor and retrieval wall time per method for the VTOT
// QoI at tolerances 1e-1..1e-5 (paper Table IV).
func Table4(ctx context.Context, o Opts) string {
	ds := o.geSmall()
	vtot := []qoi.QoI{ds.QoIs[0]}
	ranges := core.QoIRanges(vtot, ds.Fields)
	rels := []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}
	t := &stats.Table{Header: []string{"Compressor", "Refactoring(s)", "1E-1", "1E-2", "1E-3", "1E-4", "1E-5"}}
	for _, m := range methodsFig7 {
		start := time.Now()
		vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
			Progressive: progressive.Options{Method: m, LosslessTail: true},
			MaskZeros:   true,
		})
		if err != nil {
			return "table4: " + err.Error()
		}
		refactorTime := time.Since(start).Seconds()
		cells := []interface{}{m.String(), refactorTime}
		for _, rel := range rels {
			rt, err := core.NewRetriever(vars, core.Config{}, nil)
			if err != nil {
				return "table4: " + err.Error()
			}
			start := time.Now()
			if _, err := rt.Retrieve(ctx, core.Request{Targets: []core.Target{
				{QoI: vtot[0], Tolerance: rel, Relative: true, Range: ranges[0]},
			}}); err != nil {
				return "table4: " + err.Error()
			}
			cells = append(cells, time.Since(start).Seconds())
		}
		t.AddRow(cells...)
	}
	return "Table IV: refactor and retrieval time (seconds), VTOT on GE-small\n" + t.String()
}

// Fig9 runs the remote-transfer experiment: per-block QoI retrieval over a
// simulated Globus-class link, versus shipping the raw velocity fields
// (paper Fig. 9).
func Fig9(ctx context.Context, o Opts) string {
	ds, workers := o.geLarge()
	blockSize := ds.NumElements() / workers
	// VTOT uses the velocity components only: 3 of the 5 fields.
	rawBytes := int64(ds.NumElements()) * 8 * 3
	// Calibrate the link so the raw baseline is the paper's ≈11.7 s at this
	// (possibly scaled) data size.
	link := netsim.DefaultGlobusLink
	link.BandwidthBps = float64(rawBytes) / 11.7

	// Refactor each block independently (one block per core, like the paper).
	type blockVars struct{ vars []*core.Variable }
	refactorStart := time.Now()
	blocks := make([]blockVars, workers)
	names := ds.FieldNames[:3]
	for b := 0; b < workers; b++ {
		fields := make([][]float64, 3)
		for f := 0; f < 3; f++ {
			fields[f] = ds.Fields[f][b*blockSize : (b+1)*blockSize]
		}
		vars, err := core.RefactorVariables(names, fields, []int{blockSize}, core.RefactorOptions{
			Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
			MaskZeros:   true,
		})
		if err != nil {
			return "fig9: " + err.Error()
		}
		blocks[b] = blockVars{vars: vars}
	}
	refactorTime := time.Since(refactorStart)

	t := &stats.Table{Header: []string{"req_rel_tol(VTOT)", "retrieved_MB", "transfer_time(s)", "speedup_vs_raw"}}
	rawTime := netsim.RawTransferTime(rawBytes, workers, link)
	vtot := qoi.TotalVelocity(0, 1, 2)
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		res, err := netsim.Run(workers, workers, link, func(b int, rec *netsim.Recorder) error {
			rt, err := core.NewRetriever(blocks[b].vars, core.Config{}, rec.Observe)
			if err != nil {
				return err
			}
			fields := make([][]float64, 3)
			for f := 0; f < 3; f++ {
				fields[f] = ds.Fields[f][b*blockSize : (b+1)*blockSize]
			}
			ranges := core.QoIRanges([]qoi.QoI{vtot}, fields)
			if ranges[0] == 0 {
				ranges[0] = 1
			}
			_, err = rt.Retrieve(ctx, core.Request{Targets: []core.Target{
				{QoI: vtot, Tolerance: rel, Relative: true, Range: ranges[0]},
			}})
			return err
		})
		if err != nil {
			return "fig9: " + err.Error()
		}
		t.AddRow(rel,
			float64(res.TotalBytes)/1e6,
			res.Makespan.Seconds(),
			rawTime.Seconds()/res.Makespan.Seconds())
	}
	return fmt.Sprintf(
		"Fig. 9: data transfer time over simulated Globus link (%d workers, PMGARD-HB)\n"+
			"raw transfer baseline: %.2f s for %.2f MB; refactoring took %.2f s\n%s",
		workers, rawTime.Seconds(), float64(rawBytes)/1e6, refactorTime.Seconds(), t.String())
}

// All runs every experiment in order.
func All(ctx context.Context, o Opts) string {
	parts := []string{
		Table3(ctx, o), Fig2(ctx, o), Fig3(ctx, o), Fig4(ctx, o), Fig5(ctx, o),
		Fig6(ctx, o), Fig7(ctx, o), Fig8(ctx, o), Table4(ctx, o), Fig9(ctx, o),
	}
	return strings.Join(parts, "\n\n"+strings.Repeat("=", 72)+"\n\n")
}
