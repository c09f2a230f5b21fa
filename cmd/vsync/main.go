// Command vsync runs the full VirtualSync flow on a circuit: the
// retiming&sizing baseline, the period search, validation, and (optionally)
// functional-equivalence simulation, then writes the optimized netlist.
//
// Usage:
//
//	vsync [-lib file] [-bench name] [-o out.bench] [-step 0.005]
//	      [-frac 0.95] [-no-latches] [-no-replace] [-verify n]
//	      [-verify-lanes n]
//	      [-eco edits.txt [-eco-refine]] [circuit.bench]
//
// With -eco, the initial optimization is kept as a live session; the
// edit script (one resize/swap/rewire/insertff/removeff per line) is
// then applied and the circuit is re-optimized incrementally, reusing
// the session's timing analysis, extracted region and solver state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"virtualsync"
	"virtualsync/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsync:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vsync", flag.ContinueOnError)
	libPath := fs.String("lib", "", "cell library file (default: built-in vs45)")
	benchName := fs.String("bench", "", "generate a built-in benchmark instead of reading a file")
	outPath := fs.String("o", "", "write the optimized circuit to this file")
	step := fs.Float64("step", 0.005, "period-search step fraction (paper: 0.005)")
	frac := fs.Float64("frac", 0.95, "critical-path selection fraction")
	noLatches := fs.Bool("no-latches", false, "disable latch delay units")
	noReplace := fs.Bool("no-replace", false, "disable buffer replacement (paper 5.4)")
	verify := fs.Int("verify", 48, "equivalence-simulation cycles (0 to skip)")
	verifyLanes := fs.Int("verify-lanes", 64, "independent stimulus lanes verified bit-parallel (1: scalar event engine only, max 4096)")
	skipBaseline := fs.Bool("skip-baseline", false, "assume the input is already retimed and sized")
	timeout := fs.Duration("timeout", 0, "abort the period search after this long (0 = no limit)")
	ecoPath := fs.String("eco", "", "ECO edit script to apply and re-optimize incrementally")
	ecoRefine := fs.Bool("eco-refine", false, "with -eco: search below the held period after the edit")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	lib, err := loadLib(*libPath)
	if err != nil {
		return err
	}
	c, err := loadCircuit(*benchName, fs.Arg(0))
	if err != nil {
		return err
	}

	base := c
	if !*skipBaseline {
		b, err := virtualsync.RetimeAndSize(c, lib)
		if err != nil {
			return err
		}
		base = b.Circuit
		fmt.Fprintf(out, "retiming&sizing baseline: T = %.2f, area = %.1f\n", b.Period, b.Area)
	}

	opts := virtualsync.DefaultOptions()
	opts.SelectFrac = *frac
	opts.UseLatches = !*noLatches
	opts.BufferReplace = !*noReplace

	if *ecoPath != "" {
		return runECO(ctx, out, base, lib, opts, *step, *ecoPath, *ecoRefine, *verify, *verifyLanes, *outPath, *timeout)
	}

	res, err := virtualsync.OptimizeCtx(ctx, base, lib, opts, *step)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("period search exceeded -timeout %v", *timeout)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "VirtualSync: T %.2f -> %.2f (%.1f%% reduction)\n",
		res.BaselinePeriod, res.Period, res.PeriodReductionPct())
	fmt.Fprintf(out, "  removed FFs: %d; inserted: %d FF units, %d latch units, %d buffers (%d chains replaced)\n",
		res.RemovedFFs, res.NumFFUnits, res.NumLatchUnits, res.NumBuffers, res.BufferReplaced)
	fmt.Fprintf(out, "  area: %.1f -> %.1f (%+.2f%%)\n", res.BaselineArea, res.Area, res.AreaDeltaPct())
	fmt.Fprintf(out, "  solver: %d pivots, %d B&B nodes, warm-start rate %.0f%% (%d warm / %d cold)\n",
		res.Solver.Pivots(), res.Solver.Nodes, 100*res.Solver.WarmHitRate(),
		res.Solver.WarmStarts, res.Solver.ColdStarts)
	fmt.Fprintf(out, "  runtime: %v\n", res.Runtime)

	if *verify > 0 {
		if err := verifyPair(out, base, res.Circuit, lib, res.BaselinePeriod, res.Period, *verify, *verifyLanes); err != nil {
			return err
		}
	}
	return writeOut(out, *outPath, res.Circuit)
}

// runECO keeps the initial optimization as a session, applies the edit
// script and re-optimizes incrementally. The report deliberately carries
// no wall-clock times so that its output is deterministic for a given
// input (the golden tests depend on this).
func runECO(ctx context.Context, out io.Writer, base *virtualsync.Circuit, lib *virtualsync.Library,
	opts virtualsync.Options, step float64, ecoPath string, refine bool, verify, verifyLanes int,
	outPath string, timeout time.Duration) error {
	script, err := os.ReadFile(ecoPath)
	if err != nil {
		return err
	}
	edits, err := virtualsync.ParseEdits(string(script))
	if err != nil {
		return err
	}
	if len(edits) == 0 {
		return fmt.Errorf("edit script %s contains no edits", ecoPath)
	}

	sess, err := virtualsync.NewSession(ctx, base, lib, opts, step, nil)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("period search exceeded -timeout %v", timeout)
	}
	if err != nil {
		return err
	}
	sess.Refine = refine
	cold := sess.Result
	fmt.Fprintf(out, "VirtualSync: T %.2f -> %.2f (%.1f%% reduction)\n",
		cold.BaselinePeriod, cold.Period, cold.PeriodReductionPct())

	res, st, err := sess.Reoptimize(ctx, edits)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ECO: %d edits applied\n", len(edits))
	fmt.Fprintf(out, "  dirty cone: %d of %d nodes\n", st.ConeNodes, sess.Circuit.Len())
	if st.STA != nil {
		fmt.Fprintf(out, "  timing: incremental, %d arrivals recomputed (%d changed)\n",
			st.STA.ArrivalRecomputed, st.STA.ArrivalChanged)
	} else {
		fmt.Fprintf(out, "  timing: full re-analysis\n")
	}
	region := "rebuilt"
	if st.Spliced {
		region = "spliced"
	}
	plan := "cold start"
	switch {
	case st.PlanTransferred && st.BasisTransferred:
		plan = "plan transferred, basis carried"
	case st.PlanTransferred:
		plan = "plan transferred"
	}
	fmt.Fprintf(out, "  region: %s; %s\n", region, plan)
	if st.Fallback {
		fmt.Fprintf(out, "  probes: %d, fell back to the cold period search\n", st.Probes)
	} else {
		fmt.Fprintf(out, "  probes: %d (recovery %d, refine %d)\n", st.Probes, st.RecoverySteps, st.Refined)
	}
	fmt.Fprintf(out, "  T: %.2f -> %.2f; area: %.1f -> %.1f\n", cold.Period, res.Period, cold.Area, res.Area)

	if verify > 0 {
		if err := verifyPair(out, sess.Circuit, res.Circuit, lib, res.BaselinePeriod, res.Period, verify, verifyLanes); err != nil {
			return err
		}
	}
	return writeOut(out, outPath, res.Circuit)
}

// verifyPair runs functional-equivalence simulation and reports the
// outcome. With lanes > 1 both sides run bit-parallel over that many
// independent stimulus vectors first; a clean pass is accepted as is,
// while every flagged lane is re-confirmed through the scalar
// event-engine oracle, which has the final word on any failure.
func verifyPair(out io.Writer, a, b *virtualsync.Circuit, lib *virtualsync.Library, Ta, Tb float64, cycles, lanes int) error {
	if lanes > 1 {
		lr, err := virtualsync.VerifyEquivalenceLanes(a, b, lib, Ta, Tb, cycles, 8, lanes, 1)
		if err == nil && !lr.Fail() {
			fmt.Fprintf(out, "  functional equivalence: OK over %d cycles x %d lanes\n", cycles, lr.Lanes)
			return nil
		}
		if err == nil {
			fmt.Fprintf(out, "  bit-parallel equivalence flagged %d of %d lanes; re-confirming on the event engine\n",
				lr.FlaggedLanes(), lr.Lanes)
			stims := sim.LaneStimulus(a, cycles, 0, 1, lanes)
			for l := 0; l < lanes; l++ {
				if !sim.MaskHasLane(lr.Mask, l) {
					continue
				}
				ms, err := sim.VerifyEquivalenceStim(a, b, lib, Ta, Tb, 8, stims[l])
				if err != nil {
					return err
				}
				if len(ms) != 0 {
					return fmt.Errorf("functional equivalence: lane %d: %d mismatches over %d cycles (first: %v)",
						l, len(ms), cycles, ms[0])
				}
			}
			fmt.Fprintf(out, "  event engine confirmed none of the flagged lanes; keeping the scalar verdict\n")
		}
	}
	ms, err := virtualsync.VerifyEquivalence(a, b, lib, Ta, Tb, cycles, 8, 1)
	if err != nil {
		return err
	}
	if len(ms) != 0 {
		return fmt.Errorf("functional equivalence: %d mismatches over %d cycles (first: %v)", len(ms), cycles, ms[0])
	}
	fmt.Fprintf(out, "  functional equivalence: OK over %d cycles\n", cycles)
	return nil
}

func writeOut(out io.Writer, path string, c *virtualsync.Circuit) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := virtualsync.WriteCircuit(f, c); err != nil {
		return err
	}
	fmt.Fprintf(out, "optimized circuit written to %s\n", path)
	return nil
}

func loadLib(path string) (*virtualsync.Library, error) {
	if path == "" {
		return virtualsync.DefaultLibrary(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return virtualsync.LoadLibrary(f)
}

func loadCircuit(benchName, path string) (*virtualsync.Circuit, error) {
	if benchName != "" {
		return virtualsync.GenerateBenchmark(benchName), nil
	}
	if path == "" {
		return nil, fmt.Errorf("need a circuit file or -bench name (one of %v)", virtualsync.BenchmarkNames())
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return virtualsync.LoadCircuit(f, path)
}
