// Package expt reproduces every table and figure of the VirtualSync
// paper's evaluation (Section 6): Table 1 (per-circuit optimization
// results), Fig. 6 (sequential delay units before/after buffer
// replacement), Fig. 7 (area ratio of the replacement), Fig. 8 (area at
// equal clock period vs retiming&sizing), plus the motivating Fig. 1
// walk-through and the Fig. 2 delay-unit transfer characteristics.
package expt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"virtualsync/internal/netlist"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/retime"
	"virtualsync/internal/service"
	"virtualsync/internal/sim"
	"virtualsync/internal/sizing"
	"virtualsync/internal/sta"
)

// Config bundles the experiment parameters.
type Config struct {
	Lib      *celllib.Library
	Opts     core.Options
	StepFrac float64 // period-search step (paper: 0.005)

	// VerifyCycles > 0 enables functional-equivalence simulation of every
	// optimized circuit over that many cycles.
	VerifyCycles int

	// Progress, when non-nil, receives one line per finished circuit.
	Progress io.Writer

	// Workers is the number of circuits RunSuite optimizes concurrently
	// (0 or 1: sequential). Each circuit's pipeline is internally
	// deterministic, so results and formatted tables are identical for
	// any worker count.
	Workers int
}

// verifySeed seeds the stimulus of every suite equivalence check.
const verifySeed = 1

// DefaultConfig returns the paper's settings with equivalence checking on.
func DefaultConfig() Config {
	return Config{
		Lib:          celllib.Default(),
		Opts:         core.DefaultOptions(),
		StepFrac:     core.DefaultStepFrac,
		VerifyCycles: 48,
	}
}

// CircuitResult is one Table 1 row plus the figure data derived from the
// same run.
type CircuitResult struct {
	Name string

	// Circuit statistics (Table 1: ns, ng).
	NS, NG int
	// Critical-part statistics (Table 1: ncs, ncg).
	NCS, NCG int
	// Inserted hardware (Table 1: nf, nl, nb).
	NF, NL, NB int
	// NT is the clock-period reduction vs retiming&sizing in percent.
	NT float64
	// NA is the area change vs retiming&sizing in percent.
	NA float64
	// Runtime of the VirtualSync flow.
	Runtime time.Duration
	// Wall is the end-to-end wall time of the whole per-circuit pipeline
	// (generate, baseline, period search, Fig. 8 finish, equivalence sim) —
	// what suite scheduling actually pays per circuit, as opposed to
	// Runtime, which covers the optimizer alone.
	Wall time.Duration

	BaselinePeriod float64 // margined retiming&sizing period
	Period         float64 // achieved VirtualSync period
	BaselineArea   float64
	Area           float64

	// Fig. 6: sequential delay units before/after buffer replacement.
	UnitsBeforeReplace int
	UnitsAfterReplace  int
	// Fig. 7: inserted area after replacement as % of before.
	AreaRatioPct float64
	// Fig. 8: inserted/total area when targeting the retiming&sizing
	// period itself (no period reduction).
	AreaSamePeriod         float64
	BaselineAreaSamePeriod float64

	// EquivChecked/EquivOK report the simulation-based functional check.
	EquivChecked bool
	EquivOK      bool
	Mismatches   int
}

// RunCircuit executes the full per-circuit pipeline: generate, size,
// retime, size again (the retiming&sizing baseline), run VirtualSync's
// period search, verify functional equivalence, and collect the row.
// Cancelling ctx aborts the period search with ctx.Err().
func RunCircuit(ctx context.Context, spec gen.Spec, cfg Config) (*CircuitResult, error) {
	start := time.Now()
	c, err := gen.Generate(spec)
	if err != nil {
		return nil, err
	}
	st := c.Stats()
	row := &CircuitResult{Name: spec.Name, NS: st.DFFs, NG: st.Gates}

	// Baseline: sizing + retiming + sizing (paper: "after thorough sizing
	// and retiming").
	base, _, err := retime.Baseline(c, cfg.Lib)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}

	res, err := core.OptimizeObserved(ctx, base, cfg.Lib, cfg.Opts, cfg.StepFrac, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: virtualsync: %w", spec.Name, err)
	}
	rst := res.Plan.R.Stats()
	row.NCS, row.NCG = rst.SelectedFFs, rst.RegionGates
	row.NF, row.NL, row.NB = res.NumFFUnits, res.NumLatchUnits, res.NumBuffers
	row.NT = res.PeriodReductionPct()
	row.NA = res.AreaDeltaPct()
	row.Runtime = res.Runtime
	row.BaselinePeriod, row.Period = res.BaselinePeriod, res.Period
	row.BaselineArea, row.Area = res.BaselineArea, res.Area
	row.UnitsBeforeReplace = res.PreReplaceFFUnits + res.PreReplaceLatchUnits
	row.UnitsAfterReplace = res.NumFFUnits + res.NumLatchUnits
	if res.PreReplaceArea > 0 {
		row.AreaRatioPct = 100 * res.InsertedArea / res.PreReplaceArea
	} else {
		row.AreaRatioPct = 100
	}

	// Fig. 8: VirtualSync at the baseline's own period, finished from
	// the period search's first probe; nil when that probe failed.
	same, err := res.AtBaselinePeriod(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: fig. 8: %w", spec.Name, err)
	}
	if same != nil {
		row.AreaSamePeriod = same.Area
		row.BaselineAreaSamePeriod = same.BaselineArea
	}

	if cfg.VerifyCycles > 0 {
		v, err := sim.CheckEquivalence(base, res.Circuit, cfg.Lib, res.BaselinePeriod, res.Period,
			res.VerifyWarmup(), sim.LaneStimulus(base, cfg.VerifyCycles, 0, verifySeed, 1))
		if err != nil {
			return nil, fmt.Errorf("%s: equivalence sim: %w", spec.Name, err)
		}
		row.EquivChecked = true
		row.EquivOK = v.OK()
		row.Mismatches = len(v.Mismatches)
	}
	row.Wall = time.Since(start)
	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, "%-12s T %7.1f -> %7.1f  nt %5.1f%%  na %+6.2f%%  nf %3d nl %3d nb %3d  equiv=%v  (%v)\n",
			row.Name, row.BaselinePeriod, row.Period, row.NT, row.NA,
			row.NF, row.NL, row.NB, !row.EquivChecked || row.EquivOK, row.Runtime.Round(time.Millisecond))
	}
	return row, nil
}

// RunSuite runs RunCircuit over the named benchmarks (all of the paper's
// suite when names is empty), cfg.Workers circuits at a time. Failing
// circuits do not abort the suite: the returned slice holds every
// successful row in suite order and the error joins every per-circuit
// failure (errors.Join); it is nil only when all circuits succeeded.
func RunSuite(ctx context.Context, names []string, cfg Config) ([]*CircuitResult, error) {
	specs, err := suiteSpecs(names)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	// Progress writers are shared across workers; serialize them.
	if cfg.Progress != nil {
		cfg.Progress = &lockedWriter{w: cfg.Progress}
	}

	rows := make([]*CircuitResult, len(specs))
	errs := make([]error, len(specs))
	// The worker pool is the service scheduler (the plumbing started
	// here and was lifted into internal/service for the daemon). Queue
	// capacity covers the whole suite, so every submission is accepted
	// up front and Drain waits for the last circuit.
	sched := service.NewScheduler(ctx, workers, len(specs))
	// Feed circuits largest-first (node count is a faithful wall-time
	// proxy): the longest job starts immediately instead of landing on a
	// lone worker at the end, which is the classic makespan pathology of
	// in-order scheduling. Results stay in suite order regardless.
	for _, i := range scheduleOrder(specs) {
		i := i
		sched.TrySubmit(func(tctx context.Context) {
			rows[i], errs[i] = RunCircuit(tctx, specs[i], cfg)
		})
	}
	sched.Drain(context.Background())

	out := make([]*CircuitResult, 0, len(specs))
	for _, r := range rows {
		if r != nil {
			out = append(out, r)
		}
	}
	return out, errors.Join(errs...)
}

// suiteSpecs returns the specs of the named benchmarks in the given
// order, or the whole paper suite when names is empty.
func suiteSpecs(names []string) ([]gen.Spec, error) {
	if len(names) == 0 {
		return gen.PaperSuite(), nil
	}
	specs := make([]gen.Spec, 0, len(names))
	for _, n := range names {
		s, ok := gen.SpecByName(n)
		if !ok {
			return nil, fmt.Errorf("expt: unknown benchmark %q", n)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// scheduleOrder returns spec indices sorted by decreasing circuit size
// (target gates + flip-flops), ties broken by suite position. This is
// longest-processing-time-first scheduling for the worker pool.
func scheduleOrder(specs []gen.Spec) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa := specs[order[a]].TargetGates + specs[order[a]].TargetFFs
		sb := specs[order[b]].TargetGates + specs[order[b]].TargetFFs
		return sa > sb
	})
	return order
}

// lockedWriter serializes concurrent progress lines from suite workers.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// Fig1Result holds the motivating-example period ladder (paper Fig. 1:
// 21 / 16 / 11 / 8.5 for original / sized / retimed / VirtualSync).
type Fig1Result struct {
	Original    float64
	Sized       float64
	Retimed     float64
	VirtualSync float64
	// MarginedRetimed is the guard-banded retiming&sizing period that
	// VirtualSync's reduction is measured against.
	MarginedRetimed float64
}

// RunFig1 reproduces the paper's Fig. 1 ladder on the Fig. 1 circuit
// under the paper's default options.
func RunFig1() (*Fig1Result, error) {
	lib := gen.Fig1Library()
	c := gen.Fig1()
	out := &Fig1Result{}
	var err error
	if out.Original, err = sta.MinPeriod(c, lib); err != nil {
		return nil, err
	}
	sized := c.Clone()
	if _, err := sizing.Size(sized, lib); err != nil {
		return nil, err
	}
	if out.Sized, err = sta.MinPeriod(sized, lib); err != nil {
		return nil, err
	}
	retimed, _, err := retime.Retime(sized, lib)
	if err != nil {
		return nil, err
	}
	if _, err := sizing.Size(retimed, lib); err != nil {
		return nil, err
	}
	if out.Retimed, err = sta.MinPeriod(retimed, lib); err != nil {
		return nil, err
	}
	res, err := core.OptimizeObserved(context.Background(), retimed, lib, core.DefaultOptions(), core.DefaultStepFrac, nil)
	if err != nil {
		return nil, err
	}
	out.VirtualSync = res.Period
	out.MarginedRetimed = res.BaselinePeriod
	return out, nil
}

// Fig3Result is the relative-timing-reference worked example of paper
// Fig. 3: a register pipeline whose first two flip-flops are removed, with
// the anchor-converted arrival times at the remaining boundary.
type Fig3Result struct {
	BaselinePeriod float64
	TargetPeriod   float64
	Lambdas        map[string]int // anchors crossed per consumer
	SinkLate       map[string]float64
	SinkEarly      map[string]float64
	EquivOK        bool
}

// RunFig3 builds the Fig. 3 pipeline, optimizes it at the paper's T=10
// under the paper's default options and reports the anchor-converted
// sink arrivals.
func RunFig3() (*Fig3Result, error) {
	lib := gen.Fig1Library() // same W-cell style, tcq=3 tsu=th=1
	c, err := fig3Circuit()
	if err != nil {
		return nil, err
	}
	res, err := core.OptimizeAtPeriod(context.Background(), c, lib, 10, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("expt: Fig. 3 target period 10 infeasible")
	}
	out := &Fig3Result{
		BaselinePeriod: res.BaselinePeriod,
		TargetPeriod:   10,
		Lambdas:        map[string]int{},
		SinkLate:       map[string]float64{},
		SinkEarly:      map[string]float64{},
	}
	st, lates, earlies := core.SinkArrivals(res.Plan)
	if st {
		out.SinkLate, out.SinkEarly = lates, earlies
	}
	r := res.Plan.R
	for _, e := range r.Edges {
		out.Lambdas[r.Work.Node(e.DstNode).Name] += e.Lambda
	}
	v, err := sim.CheckEquivalence(c, res.Circuit, lib, res.BaselinePeriod, 10, 6, sim.LaneStimulus(c, 50, 0, 3, 1))
	if err != nil {
		return nil, err
	}
	out.EquivOK = v.OK()
	return out, nil
}

func fig3Circuit() (*netlist.Circuit, error) {
	const src = `
INPUT(in)
OUTPUT(z)
F1 = DFF(in)
u1 = BUF(F1) [W5]
u2 = BUF(u1) [W6]
F2 = DFF(u2)
w  = BUF(F2) [W3]
F3 = DFF(w)
t  = BUF(F3) [W2]
F4 = DFF(t)
z  = BUF(F4) [W1]
`
	return netlist.ParseString(src, "fig3")
}

// Fig2Point is one sample of a delay unit's transfer characteristic.
type Fig2Point struct {
	In        float64
	BufferOut float64
	FFOut     float64 // NaN outside the legal window
	LatchOut  float64 // NaN outside the legal window
}

// fig2Seq, fig2T and fig2Buffer are the delay units paper Fig. 2 draws:
// T=10 with tcq=3, tdq=1, tsu=th=1, and a buffer delay of 2.
var fig2Seq = celllib.SeqTiming{Tcq: 3, Tdq: 1, Tsu: 1, Th: 1}

const fig2T, fig2Buffer = 10.0, 2.0

// fig2Samples is the number of evenly spaced input arrivals RunFig2
// samples over one clock period.
const fig2Samples = 41

// RunFig2 samples the three transfer characteristics of paper Fig. 2 over
// one clock period.
func RunFig2() []Fig2Point {
	out := make([]Fig2Point, 0, fig2Samples)
	for i := 0; i < fig2Samples; i++ {
		in := fig2T * float64(i) / float64(fig2Samples-1)
		p := Fig2Point{In: in, BufferOut: in + fig2Buffer, FFOut: math.NaN(), LatchOut: math.NaN()}
		if v, _, ok := core.UnitOut(core.UnitFF, fig2Seq, fig2T, 0, in); ok {
			p.FFOut = v
		}
		if v, _, ok := core.UnitOut(core.UnitLatch, fig2Seq, fig2T, 0, in); ok {
			p.LatchOut = v
		}
		out = append(out, p)
	}
	return out
}
