// Command progqoi packs raw float64 fields into progressive archives and
// retrieves them under QoI error tolerances.
//
// Pack several fields (one little-endian float64 file each) into an
// archive: a directory, or an s3:// bucket that progqoid can serve:
//
//	progqoi pack -dims 512x512 -dataset ge -fields Vx,Vy,Vz \
//	    -store ./archives -workers 8 vx.f64 vy.f64 vz.f64
//
// retrieve, info and verify each take one archive reference, in the
// grammar progqoi.Open accepts: a bare dir/dataset, file://dir/dataset,
// http(s)://host[/base]/dataset for a running progqoid (see cmd/progqoid),
// or s3://bucket[/prefix]/dataset:
//
//	progqoi retrieve -qoi "sqrt(Vx^2+Vy^2+Vz^2)" -tol 1e-4 \
//	    -out vtot ./archives/ge
//	progqoi info http://host:9123/ge
//	progqoi verify ./archives/ge vx.f64 vy.f64 vz.f64
//
// verify takes one original per field, in the archive's field order, and
// checks at 14 relative tolerances that each field's certified error
// dominates its measured one.
//
// pack streams — one variable in memory at a time, variable blobs flushed
// before the manifest — and parallelizes the per-bitplane encode under
// -workers, with byte-identical output at every setting. Packing into a
// directory a progqoid already serves, then POSTing its
// /v1/datasets/reload admin route, publishes the dataset live.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"progqoi"
	"progqoi/internal/core"
	"progqoi/internal/progressive"
	"progqoi/internal/stats"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "pack":
		err = cmdPack(os.Args[2:])
	case "retrieve":
		err = cmdRetrieve(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "progqoi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  progqoi pack -dims NxMx... -dataset NAME -fields A,B,... -store DIR|s3://bucket[/prefix] [-method NAME] [-workers N] IN1.f64 IN2.f64 ...
  progqoi retrieve -qoi FORMULA -tol T [-timeout D] [-progress] [-trace FILE] [-out PREFIX] REF
  progqoi info REF
  progqoi verify REF ORIG1.f64 ORIG2.f64 ...   (one original per field, in field order)
REF: dir/dataset, file://dir/dataset, http(s)://host[/base]/dataset,
     or s3://bucket[/prefix]/dataset (PROGQOI_S3_* env)
methods: psz3, psz3-delta, pmgard, pmgard-hb (default)`)
}

// newFlagSet builds a subcommand flag set that reports parse failures as
// returned errors instead of exiting the process (matching progqoid), so
// callers — and tests — see them; -h stays a clean exit via flag.ErrHelp.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// parsed maps fs.Parse results to subcommand errors: help is success (the
// usage text was already printed), everything else propagates.
func parsed(fs *flag.FlagSet, args []string) (help bool, err error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return true, nil
		}
		return false, err
	}
	return false, nil
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad dims %q", s)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

func parseMethod(s string) (progressive.Method, error) {
	switch strings.ToLower(s) {
	case "psz3":
		return progressive.PSZ3, nil
	case "psz3-delta", "psz3delta":
		return progressive.PSZ3Delta, nil
	case "pmgard":
		return progressive.PMGARD, nil
	case "pmgard-hb", "pmgardhb", "":
		return progressive.PMGARDHB, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}

func readF64(path string) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("%s: size %d not a multiple of 8", path, len(raw))
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

func writeF64(path string, vals []float64) error {
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return os.WriteFile(path, raw, 0o644)
}

// cmdPack refactors several fields into one archive written to a storage
// directory, ready for progqoid to serve. It streams: each input file is
// loaded, refactored with the -workers encode pool, and flushed before the
// next is touched, with the manifest written last — so packing is crash-
// safe (a killed pack leaves only ignored orphan blobs) and its memory
// high-water mark is one variable, not the dataset. Packing into the
// directory of a running progqoid followed by POST /v1/datasets/reload
// publishes the dataset with zero downtime.
func cmdPack(args []string) error {
	fs := newFlagSet("pack")
	dimsStr := fs.String("dims", "", "grid dims, e.g. 512x512")
	methodStr := fs.String("method", "pmgard-hb", "progressive method")
	dataset := fs.String("dataset", "", "dataset name")
	fieldsStr := fs.String("fields", "", "comma-separated field names, one per input file")
	storeDir := fs.String("store", "", "archive store to write: a directory, file://dir, or s3://bucket[/prefix] (endpoint/credentials via PROGQOI_S3_*)")
	workers := fs.Int("workers", 0, "encode worker pool bound (0 = all cores, 1 = sequential; output identical)")
	if help, err := parsed(fs, args); help || err != nil {
		return err
	}
	names := strings.Split(*fieldsStr, ",")
	if fs.NArg() == 0 || *dimsStr == "" || *dataset == "" || *storeDir == "" || len(names) != fs.NArg() {
		return fmt.Errorf("pack needs -dims, -dataset, -store and -fields matching the input count")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" {
			return fmt.Errorf("pack: -fields contains an empty name")
		}
		if seen[n] {
			return fmt.Errorf("pack: duplicate field name %q", n)
		}
		seen[n] = true
	}
	dims, err := parseDims(*dimsStr)
	if err != nil {
		return err
	}
	method, err := parseMethod(*methodStr)
	if err != nil {
		return err
	}
	st, err := objstore.ResolveStore(*storeDir, objstore.EnvOptions())
	if err != nil {
		return err
	}
	ne := numElements(dims)
	start := time.Now()
	var rawBytes int64
	stored, err := storage.RefactorTo(context.Background(), st, *dataset, names, dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: method, LosslessTail: true},
		MaskZeros:   true,
		Workers:     *workers,
	}, func(i int) ([]float64, error) {
		data, err := readF64(fs.Arg(i))
		if err != nil {
			return nil, err
		}
		if len(data) != ne {
			return nil, fmt.Errorf("%s: %d values, want %d for dims %s", fs.Arg(i), len(data), ne, *dimsStr)
		}
		rawBytes += int64(len(data)) * 8
		return data, nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	mbps := float64(rawBytes) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("%s: packed %d variable(s) into dataset %q (%d stored bytes) in %.2fs — %.1f MiB/s ingest; serve with: progqoid -store %s\n",
		*storeDir, len(names), *dataset, stored, elapsed.Seconds(), mbps, *storeDir)
	return nil
}

// reportRetrieval prints the certified error and byte accounting of one
// retrieval; extra (optional) extends the byte line, e.g. with wire stats.
func reportRetrieval(res *core.Result, tol float64, ne, nvars int, extra string) {
	fmt.Printf("certified max QoI error: %s (tolerance %s)\n",
		stats.FormatG(res.EstErrors[0]), stats.FormatG(tol))
	fmt.Printf("retrieved %d bytes (%.3f bits/value), %d iterations%s\n",
		res.RetrievedBytes, stats.Bitrate(res.RetrievedBytes, ne*nvars), res.Iterations, extra)
}

// writeRecons writes each reconstructed field to PREFIX_<field>.f64,
// skipping variables the request never touched.
func writeRecons(names []string, data [][]float64, outPrefix string) error {
	if outPrefix == "" {
		return nil
	}
	for i, name := range names {
		if data[i] == nil {
			continue
		}
		path := fmt.Sprintf("%s_%s.f64", outPrefix, name)
		if err := writeF64(path, data[i]); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// progressPrinter returns an OnProgress callback that renders one line per
// certify-loop iteration.
func progressPrinter() func(progqoi.Iteration) {
	return func(it progqoi.Iteration) {
		wire := ""
		if it.WireBytes > 0 {
			wire = fmt.Sprintf(", wire %d B", it.WireBytes)
		}
		fmt.Fprintf(os.Stderr, "  iter %2d: est %s, retrieved %d B%s\n",
			it.N, stats.FormatG(it.EstErrors[0]), it.RetrievedBytes, wire)
	}
}

// writeTrace renders tr as Chrome trace_event JSON at path; it runs even
// after a failed retrieval so a partial trace can explain the failure.
// Nil tr or empty path is a no-op.
func writeTrace(tr *progqoi.Trace, path string) error {
	if tr == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote trace %s\n", path)
	return nil
}

// numElements is the value count of one field on a grid of dims.
func numElements(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// withArchive opens ref through progqoi.Open, runs fn on the archive and
// closes it, so a remote archive's topology refresher and idle
// connections are released before the command returns. It is the one open path of
// retrieve, info and verify.
func withArchive(ctx context.Context, ref string, fn func(*progqoi.Archive) error) error {
	arch, err := progqoi.Open(ctx, ref)
	if err != nil {
		return err
	}
	defer arch.Close()
	return fn(arch)
}

// cmdRetrieve certifies one QoI over an archive reference: a local
// archive directory, a progqoid fragment service or an object-store
// bucket. The range and zero mask the certification needs travel in the
// archive.
func cmdRetrieve(args []string) error {
	fs := newFlagSet("retrieve")
	formula := fs.String("qoi", "", "QoI formula over the archive's field names")
	tol := fs.Float64("tol", 0, "absolute QoI error tolerance")
	outPrefix := fs.String("out", "", "write reconstructed fields to PREFIX_<field>.f64")
	timeout := fs.Duration("timeout", time.Duration(0), "abort the retrieval after this long (0 = no limit)")
	progress := fs.Bool("progress", false, "print one line per retrieval iteration")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the retrieval phases to this file")
	if help, err := parsed(fs, args); help || err != nil {
		return err
	}
	if fs.NArg() != 1 || *formula == "" || !(*tol > 0) {
		return fmt.Errorf("retrieve needs -qoi, -tol > 0 and one archive reference")
	}
	var tr *progqoi.Trace
	if *tracePath != "" {
		tr = progqoi.NewTrace()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	return withArchive(ctx, fs.Arg(0), func(arch *progqoi.Archive) error {
		names := arch.FieldNames()
		q, err := progqoi.ParseQoI("qoi", *formula, names)
		if err != nil {
			return err
		}
		sess, err := arch.Open(progqoi.WithTrace(tr))
		if err != nil {
			return err
		}
		req := progqoi.Request{Targets: []progqoi.Target{{QoI: q, Tolerance: *tol}}}
		if *progress {
			req.OnProgress = progressPrinter()
		}
		res, err := sess.Do(ctx, req)
		if terr := writeTrace(tr, *tracePath); terr != nil && err == nil {
			err = terr
		}
		if err != nil {
			return err
		}
		var extra string
		switch {
		case arch.Remote():
			ws := arch.RemoteStats()
			extra = fmt.Sprintf("; wire: %d bytes in %d requests (%d cache hits)",
				ws.WireBytes, ws.WireRequests, ws.CacheHits)
		case arch.StoreBacked():
			ss := arch.StoreStats()
			extra = fmt.Sprintf("; store: %d bytes in %d cold fetches", ss.ColdFetchBytes, ss.ColdFetches)
		}
		reportRetrieval(res, *tol, numElements(arch.Dims()), len(names), extra)
		return writeRecons(names, res.Data, *outPrefix)
	})
}

// cmdVerify replays a progressive retrieval of each field against its
// original and prints, per relative tolerance, the certified bound next to
// the measured error; the bound must dominate at every level. Each field
// runs in its own session under the identity QoI, so a level reuses the
// fragments of the levels before it. Where full fidelity cannot certify a
// level, the best-effort estimate is the bound that is checked.
func cmdVerify(args []string) error {
	fs := newFlagSet("verify")
	if help, err := parsed(fs, args); help || err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("verify needs an archive reference and one original .f64 file per field")
	}
	ctx := context.Background()
	return withArchive(ctx, fs.Arg(0), func(arch *progqoi.Archive) error {
		names := arch.FieldNames()
		origs := fs.Args()[1:]
		if len(origs) != len(names) {
			return fmt.Errorf("verify: %d original(s) for fields %s", len(origs), strings.Join(names, ","))
		}
		ne := numElements(arch.Dims())
		fmt.Printf("%-10s  %-10s  %-10s  %-10s  %-10s  %s\n", "field", "rel_target", "bound", "actual", "bitrate", "ok")
		violations := 0
		for fi, name := range names {
			orig, err := readF64(origs[fi])
			if err != nil {
				return err
			}
			if len(orig) != ne {
				return fmt.Errorf("%s: %d values, field %s has %d", origs[fi], len(orig), name, ne)
			}
			// The identity QoI of field fi, parsed over placeholder names so
			// that a field name the formula grammar cannot read works too.
			ids := make([]string, len(names))
			ids[fi] = "v"
			q, err := progqoi.ParseQoI(name, "v", ids)
			if err != nil {
				return err
			}
			sess, err := arch.Open()
			if err != nil {
				return err
			}
			rng := stats.Range(orig)
			if rng == 0 {
				rng = 1
			}
			for i := 1; i <= 14; i++ {
				rel := math.Pow(10, -float64(i))
				res, err := sess.Do(ctx, progqoi.Request{Targets: []progqoi.Target{
					{QoI: q, Tolerance: rel, Relative: true, Range: rng}}})
				if err != nil && !errors.Is(err, progqoi.ErrExhausted) {
					return fmt.Errorf("%s: %w", name, err)
				}
				bound := res.EstErrors[0]
				actual := stats.MaxAbsError(orig, res.Data[fi])
				ok := actual <= bound
				if !ok {
					violations++
				}
				fmt.Printf("%-10s  %-10s  %-10s  %-10s  %-10.3f  %v\n", name,
					stats.FormatG(rel), stats.FormatG(bound/rng), stats.FormatG(actual/rng),
					stats.Bitrate(sess.RetrievedBytes(), ne), ok)
			}
		}
		if violations > 0 {
			return fmt.Errorf("%d bound violations — archive is NOT sound", violations)
		}
		fmt.Println("all bounds dominate the measured errors: archive verified")
		return nil
	})
}

// cmdInfo prints an archive's fields, grid and stored bytes, and, for an
// archive whose variables are held locally, each field's method,
// fragment count and prefix-bound span.
func cmdInfo(args []string) error {
	fs := newFlagSet("info")
	if help, err := parsed(fs, args); help || err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info needs one archive reference")
	}
	return withArchive(context.Background(), fs.Arg(0), func(arch *progqoi.Archive) error {
		dims := arch.Dims()
		ds := make([]string, len(dims))
		for i, d := range dims {
			ds[i] = strconv.Itoa(d)
		}
		fmt.Printf("fields:     %s\n", strings.Join(arch.FieldNames(), ","))
		fmt.Printf("dims:       %s (%d values)\n", strings.Join(ds, "x"), numElements(dims))
		fmt.Printf("stored:     %d fragment bytes\n", arch.StoredBytes())
		for _, v := range arch.Variables() {
			ref := v.Ref
			fmt.Printf("%s: %s, %d fragments", v.Name, ref.Method, len(ref.Fragments))
			if len(ref.PrefixBounds) > 0 {
				fmt.Printf(", bounds %s .. %s",
					stats.FormatG(ref.PrefixBounds[0]), stats.FormatG(ref.PrefixBounds[len(ref.PrefixBounds)-1]))
			}
			fmt.Println()
		}
		return nil
	})
}
