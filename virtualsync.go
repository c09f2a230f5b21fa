// Package virtualsync is a from-scratch Go reproduction of
// "VirtualSync: Timing Optimization by Synchronizing Logic Waves with
// Sequential and Combinational Components as Delay Units"
// (Zhang, Li, Hashimoto, Schlichtmann — DAC 2018).
//
// VirtualSync removes the flip-flops inside a circuit's critical part and
// re-inserts the minimum set of delay units — buffers, flip-flops and
// latches — so that every signal still reaches the boundary flip-flops in
// its original clock cycle while the clock period drops below the
// retiming&sizing limit.
//
// This package is the public façade over the internal engines:
//
//   - circuit representation and .bench-style I/O  (LoadCircuit, WriteCircuit)
//   - a 45nm-style cell library                    (DefaultLibrary, LoadLibrary)
//   - static timing analysis                       (AnalyzeTiming, MinPeriod)
//   - the retiming&sizing baseline                 (RetimeAndSize)
//   - the VirtualSync optimizer                    (Optimize, OptimizeCtx, NewSession)
//   - event-driven functional verification         (VerifyEquivalence)
//   - the paper's benchmark suite generator        (GenerateBenchmark, BenchmarkNames)
//
// A minimal end-to-end use:
//
//	c := virtualsync.GenerateBenchmark("s5378")
//	lib := virtualsync.DefaultLibrary()
//	base, _ := virtualsync.RetimeAndSize(c, lib)
//	res, _ := virtualsync.Optimize(base.Circuit, lib, virtualsync.DefaultOptions())
//	fmt.Printf("period %.1f -> %.1f (%.1f%%)\n",
//		res.BaselinePeriod, res.Period, res.PeriodReductionPct())
package virtualsync

import (
	"context"
	"fmt"
	"io"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
	"virtualsync/internal/sim"
	"virtualsync/internal/sta"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Circuit is a gate-level netlist.
	Circuit = netlist.Circuit
	// Library is a standard-cell library with drive options and
	// flip-flop/latch timing.
	Library = celllib.Library
	// Options configures the VirtualSync optimizer (guard bands, phases,
	// duty cycle, objective weights).
	Options = core.Options
	// Result is a successful VirtualSync optimization: the optimized
	// circuit, achieved period, inserted delay units and area accounting.
	Result = core.Result
	// TimingResult holds static timing analysis results.
	TimingResult = sta.Result
	// Mismatch is one functional divergence found by simulation.
	Mismatch = sim.Mismatch
	// BenchmarkSpec describes a synthetic benchmark circuit.
	BenchmarkSpec = gen.Spec
	// SolverStats aggregates LP/MIP work counters — simplex pivots,
	// warm-start reuse, branch-and-bound nodes — behind a Result
	// (Result.Solver) or an optimization progress event.
	SolverStats = lp.Stats
	// ProgressEvent is one period-search step reported to the observer of
	// NewSession.
	ProgressEvent = core.ProgressEvent
	// ProgressFunc observes period-search progress.
	ProgressFunc = core.ProgressFunc
	// Edit is one ECO netlist edit (resize, swap, rewire, insertff,
	// removeff); see ParseEdits for the text grammar.
	Edit = netlist.Edit
	// Session holds the state needed to re-optimize a circuit
	// incrementally after ECO edits; see NewSession.
	Session = core.Session
	// ECOStats reports how one incremental re-optimization went: state
	// transferred, probes taken, whether the cold search ran.
	ECOStats = core.ECOStats
)

// DefaultOptions returns the paper's experimental settings: 95 % path
// selection, phases {0, T/4, T/2, 3T/4}, guard bands 1.1/0.9, latches and
// buffer replacement enabled.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultLibrary returns the built-in 45nm-style library.
func DefaultLibrary() *Library { return celllib.Default() }

// LoadLibrary parses a library in the text format of internal/celllib.
func LoadLibrary(r io.Reader) (*Library, error) { return celllib.ParseLibrary(r) }

// LoadCircuit parses a circuit in the extended ISCAS89 .bench dialect.
func LoadCircuit(r io.Reader, name string) (*Circuit, error) { return netlist.Parse(r, name) }

// WriteCircuit emits a circuit in the same dialect accepted by LoadCircuit.
func WriteCircuit(w io.Writer, c *Circuit) error { return netlist.Write(w, c) }

// WriteVerilog emits a circuit as a structural Verilog module (with
// behavioural DFF/latch primitives and phase annotations as comments).
func WriteVerilog(w io.Writer, c *Circuit) error { return netlist.WriteVerilog(w, c) }

// AnalyzeTiming runs static timing analysis (arrival times, minimum
// period, critical path, hold checks).
func AnalyzeTiming(c *Circuit, lib *Library) (*TimingResult, error) { return sta.Analyze(c, lib) }

// MinPeriod returns the circuit's minimum feasible clock period under
// classic fully-synchronous timing.
func MinPeriod(c *Circuit, lib *Library) (float64, error) { return sta.MinPeriod(c, lib) }

// BaselineResult is the outcome of the retiming&sizing baseline flow.
type BaselineResult struct {
	Circuit *Circuit // optimized copy; the input is left untouched
	Period  float64  // minimum period after the flow
	Area    float64
}

// RetimeAndSize runs the paper's baseline: discrete gate sizing, minimum-
// period retiming, and a final sizing pass with area recovery. The input
// circuit is not modified.
func RetimeAndSize(c *Circuit, lib *Library) (*BaselineResult, error) {
	rt, res, err := retime.Baseline(c, lib)
	if err != nil {
		return nil, fmt.Errorf("virtualsync: %w", err)
	}
	area, err := lib.CircuitArea(rt)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{Circuit: rt, Period: res.PeriodAfter, Area: area}, nil
}

// Optimize runs the full VirtualSync flow with the paper's period search:
// starting from the circuit's guard-banded baseline period, the target is
// reduced in 0.5 % steps until the model becomes infeasible, and the last
// feasible, validated solution is returned.
func Optimize(c *Circuit, lib *Library, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), c, lib, opts, 0.005)
}

// OptimizeCtx is Optimize with an explicit period-search step fraction,
// under a context: cancellation or deadline expiry aborts the period
// search with ctx.Err().
func OptimizeCtx(ctx context.Context, c *Circuit, lib *Library, opts Options, stepFrac float64) (*Result, error) {
	return core.OptimizeObserved(ctx, c, lib, opts, stepFrac, nil)
}

// NewSession runs the full VirtualSync period search on c and keeps the
// state needed for incremental ECO re-optimization: call Reoptimize on
// the returned session to apply an edit list and re-solve from the
// previous timing analysis, region extraction and solver basis instead
// of rerunning the search cold. obs may be nil.
func NewSession(ctx context.Context, c *Circuit, lib *Library, opts Options, stepFrac float64, obs ProgressFunc) (*Session, error) {
	return core.NewSession(ctx, c, lib, opts, stepFrac, obs)
}

// ParseEdits parses an ECO edit script: one edit per line ("#" comments
// allowed), with the grammar
//
//	resize <node> <drive>
//	swap <node> <cell>
//	rewire <node> <pin> <driver>
//	insertff <name> <node> <pin>
//	removeff <node>
func ParseEdits(s string) ([]Edit, error) { return netlist.ParseEdits(s) }

// FormatEdits renders an edit list in the grammar ParseEdits accepts.
func FormatEdits(edits []Edit) string { return netlist.FormatEdits(edits) }

// DiffEdits expresses cur as an edit list against base, when the
// difference is expressible in the edit grammar (same node names with
// changed drives, cells or wiring). ok is false otherwise.
func DiffEdits(base, cur *Circuit) ([]Edit, bool) { return netlist.DiffEdits(base, cur) }

// VerifyEquivalence simulates both circuits with the same per-cycle
// random stimulus (each at its own clock period) and compares every
// common flip-flop and primary output from cycle warmup onward. An empty
// result means the circuits are functionally equivalent on this stimulus.
// It is the flow's verdict, sim.CheckEquivalence, on one stimulus lane.
func VerifyEquivalence(a, b *Circuit, lib *Library, Ta, Tb float64, cycles, warmup int, seed int64) ([]Mismatch, error) {
	v, err := sim.CheckEquivalence(a, b, lib, Ta, Tb, warmup, sim.LaneStimulus(a, cycles, 0, seed, 1))
	if err != nil {
		return nil, err
	}
	return v.Mismatches, nil
}

// BenchmarkNames lists the paper's benchmark suite (Table 1 circuits).
func BenchmarkNames() []string {
	specs := gen.PaperSuite()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// GenerateBenchmark deterministically generates the named synthetic
// benchmark circuit from the paper's suite. It panics on unknown names;
// use BenchmarkNames for the list.
func GenerateBenchmark(name string) *Circuit {
	spec, ok := gen.SpecByName(name)
	if !ok {
		panic(fmt.Sprintf("virtualsync: unknown benchmark %q", name))
	}
	return gen.MustGenerate(spec)
}
