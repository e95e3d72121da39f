// Command benchmarks is the repository benchmark: four workloads (pack-nyx,
// do-local-ge, do-cluster3-s3d, do-objstore-s3d), six end-to-end metrics
// measured with tracing off, and a traced run that splits each op between
// the layers it crosses. See README.md in this directory.
//
//	go run ./benchmarks -workload all
//	go run ./benchmarks -workload do-local-ge -seed 7 -seconds 20 -trace 0
//	go run ./benchmarks -check-repeat
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics with their units.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := cli(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func cli(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: pack-nyx, do-local-ge, do-cluster3-s3d, do-objstore-s3d, or all (each in a fresh process)")
	seed := fs.Int64("seed", 1, "dataset seed: the only source of randomness")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.String("trace", "both", "0: end-to-end metrics only, tracing off; 1: per-layer metrics only; both")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file as Chrome trace JSON")
	repeat := fs.Bool("check-repeat", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds %g: want a positive length", *seconds)
	}
	if *repeat {
		return checkRepeat(ctx, *seed, *seconds, out)
	}
	if *name == "all" {
		for _, w := range workloads {
			childArgs := runArgs(w.Name, *seed, *seconds, *trace)
			if *traceOut != "" {
				ext := filepath.Ext(*traceOut)
				childArgs = append(childArgs, "-trace-out", (*traceOut)[:len(*traceOut)-len(ext)]+"."+w.Name+ext)
			}
			if _, err := child(ctx, childArgs, out); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
		}
		return nil
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	workDir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir) //nolint:errcheck // scratch space
	if workDir, err = filepath.Abs(workDir); err != nil {
		return err
	}
	rep, rec, err := run(ctx, config{
		workload: w, seed: *seed, seconds: *seconds,
		measure: *trace != "1", trace: *trace != "0", workDir: workDir,
	})
	if err != nil {
		return err
	}
	if *traceOut != "" && rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := rec.writeChrome(f); err != nil {
			f.Close() //nolint:errcheck // the write error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return rep.print(out)
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit, then the JSON line.
func (r *report) print(out io.Writer) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "workload %s  seed %d  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Workload, r.Seed, r.NProc, r.GoMaxProcs, r.GoVersion, r.Commit)
	failedFrac := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(w, "ops attempted %d  failed %d  failed_frac %g  latency samples %d\n", r.Attempted, r.Failed, failedFrac, r.Samples)
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if len(r.EndToEnd) > 0 {
		fmt.Fprintln(w, "end-to-end (tracing off):")
		for _, m := range endToEnd {
			v := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-28s %14.6g %-6s (%s is better, bound %g)\n", m.Name, v, m.Unit, m.Better, m.Bound)
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (ops_per_s x %.3f MB raw per op)\n", "throughput", r.EndToEnd["ops_per_s"]*r.MBPerOp, "MB/s", r.MBPerOp)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(w, "per layer (traced run; per op):")
		for _, l := range perLayer {
			v := r.Layers[l.Name]
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", l.Name, v, l.Unit)
			res.Metrics[l.Name] = metricValue{v, l.Unit}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w.Write(line) //nolint:errcheck // Flush reports the first write error
	w.WriteByte('\n')
	return w.Flush()
}

func runArgs(workload string, seed int64, seconds float64, trace string) []string {
	return []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
}

// child runs one workload in a fresh process, copies its report to out and
// returns the parsed JSON line.
func child(ctx context.Context, args []string, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not the result object: %w", err)
	}
	return &res, nil
}

// checkRepeat runs every workload twice — set A in table order, set B in
// reverse — and fails when two runs of the same code disagree by more than
// a metric's bound, or when an op fails. If a timing does not repeat, the
// remedy is a longer run, not a wider bound.
func checkRepeat(ctx context.Context, seed int64, seconds float64, out io.Writer) error {
	sets := [2]map[string]*result{{}, {}}
	for s := range sets {
		for i := range workloads {
			w := workloads[i]
			if s == 1 {
				w = workloads[len(workloads)-1-i]
			}
			res, err := child(ctx, runArgs(w.Name, seed, seconds, "0"), io.Discard)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			sets[s][w.Name] = res
		}
	}
	bad := 0
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		fmt.Fprintf(out, "%s  failed A %d/%d  B %d/%d\n", w.Name, a.Failed, a.Attempted, b.Failed, b.Attempted)
		if !a.Correct || !b.Correct {
			bad++
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := math.Abs(va-vb) / math.Abs(va)
			verdict := "ok"
			switch {
			case m.Exact && va != vb:
				verdict = "COUNT DIFFERS"
				bad++
			case !(diff <= m.Bound):
				verdict = "EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(out, "  %-18s A %12.6g  B %12.6g %-6s  diff %.4f  bound %g  %s\n", m.Name, va, vb, m.Unit, diff, m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d checks failed: two runs of the same code disagree", bad)
	}
	return nil
}

// commit is the revision being measured: the one stamped into the binary
// (go build), else the one .git/HEAD names (go run does not stamp), else
// unknown (the checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(b))
	}
	return rev
}
