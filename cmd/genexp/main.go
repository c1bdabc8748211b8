// Command genexp regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	genexp -exp fig4          # one experiment
//	genexp -exp all           # everything (EXPERIMENTS.md source data)
//	genexp -exp table3 -scale 0.5 -v
//	genexp -format csv        # the CSV record
//
// Experiments: table2 fig4 fig5 fig6 fig7 fig8 fig9 cc nh bounds table3
// memory closedloop ablations all.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"predict/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: table2 fig4 fig5 fig6 fig7 fig8 fig9 cc nh bounds table3 memory closedloop ablations all")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default stand-in sizes)")
		workers = flag.Int("workers", 0, "BSP workers (0 = default)")
		seed    = flag.Uint64("seed", 0, "master seed (0 = default)")
		verbose = flag.Bool("v", false, "print progress to stderr")
		format  = flag.String("format", "text", "output format: text or csv")
	)
	flag.Parse()
	if err := checkFlags(*scale, *workers, *format); err != nil {
		fmt.Fprintln(os.Stderr, "genexp:", err)
		os.Exit(2)
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	lab := experiments.NewLab(experiments.Config{
		Scale:    *scale,
		Workers:  *workers,
		Seed:     *seed,
		Progress: progress,
	})

	start := time.Now()
	if err := lab.Write(os.Stdout, strings.ToLower(*exp), *format == "csv"); err != nil {
		fmt.Fprintln(os.Stderr, "genexp:", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))
	}
}

// checkFlags rejects the flag values no experiment can mean.
func checkFlags(scale float64, workers int, format string) error {
	switch {
	case !(scale > 0) || math.IsInf(scale, 0):
		return fmt.Errorf("-scale %v: want a positive finite number", scale)
	case workers < 0:
		return fmt.Errorf("-workers %d: want 0 (the default) or more", workers)
	case format != "text" && format != "csv":
		return fmt.Errorf("-format %q: want text or csv", format)
	}
	return nil
}
