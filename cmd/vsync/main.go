// Command vsync runs the full VirtualSync flow on a circuit: the
// retiming&sizing baseline, the period search, validation, and (optionally)
// functional-equivalence simulation, then writes the optimized netlist.
// Its subcommands sta, sim and gen analyze, simulate and generate
// circuits without optimizing them; yield measures the timing yield of
// the optimized circuit under process variation.
//
// Usage:
//
//	vsync [-lib file] [-bench name] [-o out.bench] [-step 0.005]
//	      [-frac 0.95] [-no-latches] [-no-replace] [-verify n]
//	      [-verify-lanes n] [-eco edits.txt] [circuit.bench]
//	vsync sta [-lib file] [-T period] [-worst n] [-bench name | circuit.bench]
//	vsync sim [-lib file] [-T period] [-cycles n] [-seed n] [-vcd out.vcd]
//	          [-compare other.bench [-T2 period] [-warmup n]]
//	          [-bench name | circuit.bench]
//	vsync gen [-verilog] (-bench name [-o file] | -all [-dir dir])
//	vsync yield [-lib file] [-bench name] [-samples n] [-seed s] [-workers w]
//	            [-timeout d] [-gsigma g] [-lscale l] [-dsigma d] [-minfactor f]
//	            [-periods a,b,c] [-tune] [-margins m1,m2] [-target y]
//	            [-step f] [-frac f] [-skip-baseline] [circuit.bench]
//
// With -eco, the initial optimization is kept as a live session; the
// edit script (one resize/swap/rewire/insertff/removeff per line) is
// then applied and the circuit is re-optimized incrementally, reusing
// the session's timing analysis, extracted region and solver state.
//
// sta prints the minimum clock period, the critical paths and any hold
// violations (exit status 1 when there are some). sim runs event-driven
// timing simulation on random stimulus and prints the flip-flop and
// output traces, optionally writing a VCD dump; with -compare it
// checks a second circuit cycle for cycle through the flow's
// equivalence verdict instead (exit status 1 on mismatches). gen writes
// built-in benchmark circuits as .bench or structural Verilog. yield
// prints a Monte Carlo yield-versus-period table for the baseline and
// the optimized circuit, or with -tune a guard-band margin sweep (exit
// status 1 when no margin reaches -target).
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

// errReported fails a run whose output already shows what went wrong
// (hold violations, simulation mismatches): vsync exits with status 1
// and prints nothing further.
var errReported = errors.New("failure reported")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "vsync:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "sta":
			return runSTA(args[1:], out)
		case "sim":
			return runSim(args[1:], out)
		case "gen":
			return runGen(args[1:], out)
		case "yield":
			return runYield(args[1:], out)
		}
	}
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
	if ok, err := parseFlags(fs, args, out); !ok {
		return err
	}
	if *verifyLanes > sim.MaxLanes {
		return fmt.Errorf("-verify-lanes %d: want 1..%d lanes", *verifyLanes, sim.MaxLanes)
	}

	ctx, cancel := withTimeout(*timeout)
	defer cancel()

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
		return runECO(ctx, out, base, lib, opts, *step, *ecoPath, *verify, *verifyLanes, *outPath, *timeout)
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
		if err := verifyPair(out, base, res, lib, *verify, *verifyLanes); err != nil {
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
	opts virtualsync.Options, step float64, ecoPath string, verify, verifyLanes int,
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
		fmt.Fprintf(out, "  probes: %d (recovery %d)\n", st.Probes, st.RecoverySteps)
	}
	fmt.Fprintf(out, "  T: %.2f -> %.2f; area: %.1f -> %.1f\n", cold.Period, res.Period, cold.Area, res.Area)

	if verify > 0 {
		if err := verifyPair(out, sess.Circuit, res, lib, verify, verifyLanes); err != nil {
			return err
		}
	}
	return writeOut(out, outPath, res.Circuit)
}

// verifyPair runs the flow's equivalence verdict, sim.CheckEquivalence,
// over lanes independent stimulus vectors (1: the scalar event-engine
// oracle alone) and reports the outcome.
func verifyPair(out io.Writer, a *virtualsync.Circuit, res *virtualsync.Result, lib *virtualsync.Library, cycles, lanes int) error {
	stims := sim.LaneStimulus(a, cycles, 0, 1, max(lanes, 1))
	v, err := sim.CheckEquivalence(a, res.Circuit, lib, res.BaselinePeriod, res.Period, res.VerifyWarmup(), stims)
	if err != nil {
		return err
	}
	if v.Flagged > 0 {
		fmt.Fprintf(out, "  bit-parallel equivalence flagged %d of %d lanes; re-confirmed on the event engine\n",
			v.Flagged, len(stims))
	}
	if !v.OK() {
		return fmt.Errorf("functional equivalence: lane %d: %d mismatches over %d cycles (first: %v)",
			v.FailLane, len(v.Mismatches), cycles, v.Mismatches[0])
	}
	if v.FastPath {
		fmt.Fprintf(out, "  functional equivalence: OK over %d cycles x %d lanes\n", cycles, v.Lanes)
	} else {
		fmt.Fprintf(out, "  functional equivalence: OK over %d cycles\n", cycles)
	}
	return nil
}

func writeOut(out io.Writer, path string, c *virtualsync.Circuit) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, func(w io.Writer) error { return virtualsync.WriteCircuit(w, c) }); err != nil {
		return err
	}
	fmt.Fprintf(out, "optimized circuit written to %s\n", path)
	return nil
}

// writeFile creates path and fills it with write, returning the first
// error of the write and the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// withTimeout returns a context that expires after d, or never when d
// is 0.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}

// parseFlags parses args into fs, printing usage and parse errors to
// out. ok is false when the run should stop there: with err nil after
// -help, with the parse error otherwise.
func parseFlags(fs *flag.FlagSet, args []string, out io.Writer) (ok bool, err error) {
	fs.SetOutput(out)
	err = fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return false, nil
	}
	return err == nil, err
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
