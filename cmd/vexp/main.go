// Command vexp regenerates the paper's tables and figures.
//
// Usage:
//
//	vexp -exp table1 [-circuits s5378,s9234] [-verify 48]
//	vexp -exp fig1|fig2|fig6|fig7|fig8|all
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"virtualsync/internal/core"
	"virtualsync/internal/expt"
	"virtualsync/internal/variation"
)

func main() {
	exp := flag.String("exp", "table1", "experiment: table1, fig1, fig2, fig3, fig6, fig7, fig8, yield, all")
	circuits := flag.String("circuits", "", "comma-separated benchmark subset (default: all)")
	verify := flag.Int("verify", 48, "equivalence-simulation cycles per circuit (0 to skip)")
	step := flag.Float64("step", 0.005, "period-search step fraction")
	csvPath := flag.String("csv", "", "also write suite results as CSV to this file")
	samples := flag.Int("samples", 400, "Monte Carlo samples per circuit (yield experiment)")
	seed := flag.Uint64("seed", 1, "Monte Carlo seed (yield experiment)")
	timeout := flag.Duration("timeout", 0, "abort the whole experiment after this long (0 = no limit)")
	workers := flag.Int("workers", 1, "circuits optimized concurrently (results identical at any width)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := expt.DefaultConfig()
	cfg.VerifyCycles = *verify
	cfg.StepFrac = *step
	cfg.Progress = os.Stderr
	cfg.Workers = *workers

	var names []string
	if *circuits != "" {
		names = strings.Split(*circuits, ",")
	}

	needSuite := map[string]bool{"table1": true, "fig6": true, "fig7": true, "fig8": true, "all": true}
	var rows []*expt.CircuitResult
	if needSuite[*exp] {
		var err error
		rows, err = expt.RunSuite(ctx, names, cfg)
		if err != nil {
			fatal(timeoutErr(err, *timeout))
		}
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatal(err)
			}
			if err := expt.WriteCSV(f, rows); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
		}
	}

	switch *exp {
	case "table1":
		fmt.Print(expt.FormatTable1(rows))
	case "fig6":
		fmt.Print(expt.FormatFig6(rows))
	case "fig7":
		fmt.Print(expt.FormatFig7(rows))
	case "fig8":
		fmt.Print(expt.FormatFig8(rows))
	case "fig1":
		f, err := expt.RunFig1(core.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		fmt.Print(expt.FormatFig1(f))
	case "fig3":
		f, err := expt.RunFig3(core.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		fmt.Print(expt.FormatFig3(f))
	case "fig2":
		u := core.UnitTiming{T: 10, Phi: 0, Duty: 0.5, Tcq: 3, Tdq: 1, Tsu: 1, Th: 1, Delay: 2}
		fmt.Print(expt.FormatFig2(expt.RunFig2(u, 21)))
	case "yield":
		mc := variation.Config{Samples: *samples, Seed: *seed, Model: variation.DefaultModel()}
		ys, err := expt.RunYield(ctx, names, cfg, mc)
		if err != nil {
			fatal(timeoutErr(err, *timeout))
		}
		fmt.Print(expt.FormatYield(ys))
	case "all":
		fmt.Print(expt.FormatTable1(rows))
		fmt.Println()
		fmt.Print(expt.FormatFig6(rows))
		fmt.Println()
		fmt.Print(expt.FormatFig7(rows))
		fmt.Println()
		fmt.Print(expt.FormatFig8(rows))
		fmt.Println()
		f, err := expt.RunFig1(core.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		fmt.Print(expt.FormatFig1(f))
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

// timeoutErr names the -timeout flag when err is the run's deadline.
func timeoutErr(err error, timeout time.Duration) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("run exceeded -timeout %v", timeout)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vexp:", err)
	os.Exit(1)
}
