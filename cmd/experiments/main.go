// Command experiments regenerates the paper's evaluation tables and figures
// on the synthetic stand-in datasets and prints the same rows/series the
// paper reports, one table per figure panel. An experiment that fails
// prints its error to stderr and exits 1.
//
// Usage:
//
//	experiments -exp all            # everything (minutes)
//	experiments -exp fig7 -quick    # one experiment at benchmark scale
//
// Experiments: table3, fig2, fig3, fig4, fig5, fig6, fig7, fig8, table4,
// fig9, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"progqoi/internal/experiments"
	"progqoi/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table3 fig2..fig9 table4 all")
	quick := flag.Bool("quick", false, "benchmark-scale datasets and sweeps")
	flag.Parse()

	ctx := context.Background()
	o := experiments.Opts{Quick: *quick}
	runners := map[string]func(context.Context, experiments.Opts) ([]*stats.Table, error){
		"table3": experiments.Table3,
		"fig2":   experiments.Fig2,
		"fig3":   experiments.Fig3,
		"fig4":   experiments.Fig4,
		"fig5":   experiments.Fig5,
		"fig6":   experiments.Fig6,
		"fig7":   experiments.Fig7,
		"fig8":   experiments.Fig8,
		"table4": experiments.Table4,
		"fig9":   experiments.Fig9,
		"all":    experiments.All,
	}
	fn, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	start := time.Now()
	tables, err := fn(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A blank line parts the panels of one experiment and a rule parts
	// experiments; a title names its experiment before the first colon.
	for i, t := range tables {
		if i > 0 {
			prev, _, _ := strings.Cut(tables[i-1].Title, ":")
			if cur, _, _ := strings.Cut(t.Title, ":"); cur != prev {
				fmt.Print("\n" + strings.Repeat("=", 72) + "\n")
			}
			fmt.Println()
		}
		fmt.Print(t)
	}
	fmt.Printf("\n[%s completed in %.1f s]\n", *exp, time.Since(start).Seconds())
}
