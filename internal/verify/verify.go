// Package verify is the end-to-end differential verification harness for
// the VirtualSync pipeline. It runs the full optimization flow
// (extraction → LP relaxation → legalization → discretization → buffer
// replacement) on generated circuits and checks, by bit-parallel
// differential simulation under randomized stimulus with the scalar
// event engine as calibration oracle, that the optimized netlist
// latches the same values at every surviving flip-flop and primary
// output in the same cycles as the original — the paper's core
// correctness claim.
//
// The harness has three consumers: native Go fuzz targets (fuzz_test.go)
// over the byte-string decoder in internal/gen, the cmd/vfuzz CLI, and a
// mutation smoke mode (mutate.go) that injects known bug classes into
// the optimization result and demands the checker catches each one.
package verify

import (
	"fmt"
	"strings"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sim"
)

// Outcome classifies one differential check.
type Outcome int

const (
	// Pass: the pipeline produced an optimized circuit that is
	// cycle-accurate equivalent to the original.
	Pass Outcome = iota
	// Skip: the case never reached a comparable optimized circuit for a
	// benign reason — extraction rejected the circuit, no feasible
	// period improvement exists, or the original keeps power-on state the
	// reset prefix cannot flush (see poweron.go). Not a bug.
	Skip
	// Fail: a correctness property was violated; the Report says where.
	Fail
)

func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case Skip:
		return "skip"
	case Fail:
		return "FAIL"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Report is the result of one differential check.
type Report struct {
	Outcome Outcome
	// Stage names the pipeline stage that decided the outcome: one of
	// "decode", "optimize", "mutate", "validate", "apply", "reset", "sim",
	// "panic".
	Stage  string
	Detail string
	// Mutated is set when the checker's Mutation found a site and was
	// injected before the downstream checks ran.
	Mutated bool
	// Mismatches holds the first differing trace entries for sim failures.
	Mismatches []sim.Mismatch
	// Result is the optimization result, when one was produced.
	Result *core.Result
	// Lanes counts the independent stimulus vectors that contributed to
	// the verdict: 1 on the event-engine path, up to the checker's lane
	// width on the bit-parallel fast path. Zero when the case never
	// reached simulation.
	Lanes int
	// FastPath marks verdicts produced by the bit-parallel engines with
	// event-engine calibration; false means the pure event oracle ran.
	FastPath bool
	// FailLane is the stimulus lane whose event-engine confirmation
	// produced a sim Fail; -1 when not applicable.
	FailLane int
}

func (r *Report) String() string {
	s := r.Outcome.String()
	if r.Stage != "" {
		s += " [" + r.Stage + "]"
	}
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// Checker runs differential checks with a fixed library and option set.
type Checker struct {
	Lib  *celllib.Library
	Opts core.Options
	// Mutate, when non-nil, injects a known bug class into the
	// optimization result before the validation/apply/simulation stages —
	// the harness's own sensitivity test.
	Mutate *Mutation
	// Search selects the full period search (core.Optimize) instead of
	// the default single-period probe. The probe runs the identical
	// pipeline at one target period — T0*(1-TFrac), falling back to the
	// margined baseline T0 — which is an order of magnitude faster and is
	// what the fuzz targets and the shrinker use.
	Search bool
	// DisableBitSim forces the pure event-engine oracle even when the
	// bit-parallel fast path applies — the escape hatch and the
	// benchmarking baseline.
	DisableBitSim bool
	// Lanes selects the fast path's stimulus width, 1..sim.MaxLanes;
	// 0 means the default 64. Widths beyond 64 pack multiple machine
	// words per value (K = ceil(Lanes/64)).
	Lanes int
}

// NewChecker returns a checker over the default cell library and paper
// options.
func NewChecker() *Checker {
	return &Checker{Lib: celllib.Default(), Opts: core.DefaultOptions()}
}

// skipMarkers are substrings of core errors that mean "this circuit is
// legitimately outside the transformation's domain", not a bug: the
// extractor rejected the structure or no feasible solution exists.
var skipMarkers = []string{
	"no feasible VirtualSync solution",
	"no flip-flops selected",
	"already contains latches",
	"removed-flip-flop cycle",
	"read by",
}

func isBenign(err error) bool {
	if strings.Contains(err.Error(), "internal error") {
		return false
	}
	for _, m := range skipMarkers {
		if strings.Contains(err.Error(), m) {
			return true
		}
	}
	return false
}

// Check runs one full differential check: optimize d.Circuit, optionally
// inject the checker's mutation, and verify the optimized netlist is
// structurally sound and cycle-accurate equivalent to the original under
// d's stimulus knobs. The input case is not mutated. Panics anywhere in
// the pipeline are converted into Fail reports.
func (ck *Checker) Check(d *gen.Decoded) (rep *Report) {
	rep = &Report{Outcome: Pass, FailLane: -1}
	defer func() {
		if r := recover(); r != nil {
			rep.Outcome = Fail
			rep.Stage = "panic"
			rep.Detail = fmt.Sprint(r)
		}
	}()

	res, err := ck.optimize(d)
	if err != nil {
		if isBenign(err) {
			return &Report{Outcome: Skip, Stage: "optimize", Detail: err.Error()}
		}
		return &Report{Outcome: Fail, Stage: "optimize", Detail: err.Error()}
	}
	if res == nil {
		return &Report{Outcome: Skip, Stage: "optimize", Detail: "infeasible at target period"}
	}
	rep.Result = res

	if ck.Mutate != nil {
		if !ck.Mutate.Apply(res) {
			return &Report{Outcome: Skip, Stage: "mutate",
				Detail: "no site for mutation " + ck.Mutate.Name, Result: res}
		}
		rep.Mutated = true
		if ck.Mutate.Replan {
			// A plan-level mutation models a buggy legalizer: the mutated
			// plan must survive the exact-model validator and then be
			// re-materialized before simulation.
			if vs := res.Plan.Validate(); len(vs) > 0 {
				rep.Outcome = Fail
				rep.Stage = "validate"
				rep.Detail = vs[0].String()
				return rep
			}
			circ, err := res.Plan.Apply()
			if err != nil {
				rep.Outcome = Fail
				rep.Stage = "apply"
				rep.Detail = err.Error()
				return rep
			}
			res.Circuit = circ
		}
	}

	if err := res.Circuit.Validate(); err != nil {
		rep.Outcome = Fail
		rep.Stage = "apply"
		rep.Detail = err.Error()
		return rep
	}
	if _, err := res.Circuit.TopoOrder(); err != nil {
		rep.Outcome = Fail
		rep.Stage = "apply"
		rep.Detail = err.Error()
		return rep
	}

	ck.simStage(d, res, rep)
	return rep
}

// defaultLanes is the fast path's stimulus width when the checker does
// not select one: one lane per bit of a machine word.
const defaultLanes = 64

// confirmLaneCap bounds how many mismatching lanes get an event-engine
// confirmation run before the checker settles for the lane-0 verdict.
const confirmLaneCap = 8

// LaneWidth reports the effective fast-path stimulus width: the
// configured Lanes after applying the default and the sim.MaxLanes cap.
func (ck *Checker) LaneWidth() int { return ck.laneCount() }

// laneCount resolves the checker's configured lane width.
func (ck *Checker) laneCount() int {
	switch {
	case ck.Lanes <= 0:
		return defaultLanes
	case ck.Lanes > sim.MaxLanes:
		return sim.MaxLanes
	}
	return ck.Lanes
}

// simStage runs the differential simulation and writes the verdict into
// rep.
//
// Both sides of the fast path run bit-parallel, each on the cheapest
// engine that is exact for it: the zero-delay BitSim for phase-0
// flip-flop designs (sim.BitSimExact — every generated original), the
// word-parallel continuous-time WaveSim for circuits carrying
// multi-period logic waves (every optimized circuit). The scalar event
// engine is demoted to a calibration oracle: it simulates the
// optimized circuit once on the historical lane-0 stimulus (and the
// original too, when that side needed WaveSim), and lane 0 of each
// word engine must reproduce its trace exactly before any wide verdict
// is trusted. The lane-0 verdict itself — event-simulated optimized
// trace against the exact original trace — is therefore as strict as
// the old two-event-sim oracle; any lane-0 mismatch is re-confirmed by
// the pure event path before it becomes a Fail, keeping the shrinker
// and regression flow byte-identical.
//
// Lanes 1.. are wide coverage: the word traces are compared lanewise
// and any flagged lane is confirmed by the event engine (up to
// confirmLaneCap), then re-verified through the full two-event-sim
// oracle before it Fails, so counterexamples reaching the shrinker and
// regression corpus are always authoritative-engine products. Coverage
// is credited per lane actually proven.
func (ck *Checker) simStage(d *gen.Decoded, res *core.Result, rep *Report) {
	reset := resetCycles(d)
	historical := sim.ResetStimulus(d.Circuit, d.Cycles, reset, d.StimSeed)
	if r := unflushed(d.Circuit, historical, d.Warmup); r != nil {
		rep.Outcome = Skip
		rep.Stage = "reset"
		rep.Detail = fmt.Sprintf("register %q keeps its power-on state past warm-up cycle %d", r.Name, d.Warmup)
		return
	}

	fail := func(detail string, ms []sim.Mismatch, lane int) {
		rep.Outcome = Fail
		rep.Stage = "sim"
		rep.Detail = detail
		rep.Mismatches = ms
		rep.FailLane = lane
	}
	// slow is the pure event-engine oracle on the historical stimulus —
	// the pre-fast-path behavior, byte for byte.
	slow := func() {
		rep.Lanes = 1
		ms, err := sim.VerifyEquivalenceStim(d.Circuit, res.Circuit, ck.Lib,
			res.BaselinePeriod, res.Period, d.Warmup, historical)
		if err != nil {
			fail(err.Error(), nil, -1)
			return
		}
		if len(ms) > 0 {
			fail(fmt.Sprintf("%d trace mismatches, first %v", len(ms), ms[0]), ms, 0)
		}
	}

	if ck.DisableBitSim || !sameInputs(d.Circuit, res.Circuit) {
		slow()
		return
	}

	lanes := ck.laneCount()
	scalar := sim.LaneStimulus(d.Circuit, d.Cycles, reset, d.StimSeed, lanes)
	lr, err := sim.VerifyEquivalenceLanes(d.Circuit, res.Circuit, ck.Lib,
		res.BaselinePeriod, res.Period, d.Warmup, scalar)
	if err != nil {
		// An engine rejected the pair (e.g. zero-delay settle failure);
		// not a verdict — the event oracle decides.
		slow()
		return
	}

	// Calibration: the scalar event engine stays the authority. It
	// simulates the optimized circuit on the historical lane-0 stimulus
	// (errors here Fail, as on the old path), and lane 0 of the word
	// engine must reproduce its trace exactly — WaveSim is exact by
	// construction, so a calibration miss means an engine bug, and the
	// case falls back to the pure oracle rather than trusting either
	// fast engine.
	evSim, err := sim.New(res.Circuit, ck.Lib, sim.Options{T: res.Period, Cycles: d.Cycles})
	if err != nil {
		fail(err.Error(), nil, -1)
		return
	}
	evOpt, err := evSim.Run(scalar[0])
	if err != nil {
		fail(err.Error(), nil, -1)
		return
	}
	optLane0, err := lr.TraceB.Lane(0)
	if err != nil {
		slow()
		return
	}
	if len(sim.CompareTraces(evOpt, optLane0, d.Warmup)) > 0 {
		slow()
		return
	}
	origLane0, err := lr.TraceA.Lane(0)
	if err != nil {
		slow()
		return
	}
	if lr.EngineA == sim.EngineWaveSim {
		// The original was outside BitSim's proven-exact domain and ran
		// on WaveSim too; calibrate that side against the event engine
		// as well before trusting any wide verdict.
		evA, err := sim.New(d.Circuit, ck.Lib, sim.Options{T: res.BaselinePeriod, Cycles: d.Cycles})
		if err != nil {
			slow()
			return
		}
		ta, err := evA.Run(scalar[0])
		if err != nil {
			slow()
			return
		}
		if len(sim.CompareTraces(ta, origLane0, d.Warmup)) > 0 {
			slow()
			return
		}
	}
	if ms := sim.CompareTraces(origLane0, evOpt, d.Warmup); len(ms) > 0 {
		// Lane 0 disagrees. Before this becomes a Fail, the full
		// two-event-sim oracle must agree: a shrinker- and
		// regression-compatible counterexample needs both traces from
		// the authoritative engine.
		slow()
		return
	}
	rep.FastPath = true
	rep.Lanes = 1

	mask := lr.Mask
	if sim.MaskLanes(mask) == 0 {
		rep.Lanes = lanes
		return
	}
	// Some widened lane disagrees (lane 0 cannot: both word engines
	// agree with evOpt there). Only the event engine can declare a bug,
	// so re-simulate the optimized circuit on each flagged lane's
	// stimulus, lowest-first up to the cap, and compare against the
	// bit-parallel original trace. A lane the event engine clears was an
	// engine artifact; a lane it confirms is re-verified through the
	// full two-event-sim oracle before it Fails, so counterexamples
	// reaching the shrinker and regression corpus are always
	// authoritative-engine products.
	cleared := 0
	checked := 0
	for l := 1; l < lanes && checked < confirmLaneCap; l++ {
		if !sim.MaskHasLane(mask, l) {
			continue
		}
		checked++
		evL, err := evSim.Run(scalar[l])
		if err != nil {
			fail(err.Error(), nil, l)
			return
		}
		laneL, err := lr.TraceA.Lane(l)
		if err != nil {
			break
		}
		if len(sim.CompareTraces(laneL, evL, d.Warmup)) == 0 {
			cleared++
			continue
		}
		ms, err := sim.VerifyEquivalenceStim(d.Circuit, res.Circuit, ck.Lib,
			res.BaselinePeriod, res.Period, d.Warmup, scalar[l])
		if err != nil {
			fail(err.Error(), nil, l)
			return
		}
		if len(ms) > 0 {
			rep.Lanes = lanes
			fail(fmt.Sprintf("lane %d: %d trace mismatches, first %v", l, len(ms), ms[0]), ms, l)
			return
		}
	}
	rep.Lanes = lanes - sim.MaskLanes(mask) + cleared
}

// resetCycles is the length of the zero-input reset prefix: feedback
// state is flushed through input-driven masks before random stimulus
// starts, so post-warmup comparison never depends on power-on register
// contents (which register relocation legitimately changes). Check
// skips cases whose original the prefix cannot flush.
func resetCycles(d *gen.Decoded) int {
	return max(d.Warmup-4, 0)
}

// sameInputs reports whether both circuits expose identical primary
// input lists — the precondition for sharing stimulus between them (the
// event-engine path re-checks this inside VerifyEquivalenceStim).
func sameInputs(a, b *netlist.Circuit) bool {
	ia, ib := a.Inputs(), b.Inputs()
	if len(ia) != len(ib) {
		return false
	}
	for i := range ia {
		if ia[i].Name != ib[i].Name {
			return false
		}
	}
	return true
}

// optimize runs the configured optimization flow. A (nil, nil) return
// means no feasible solution at the probed period — a Skip, not a bug.
func (ck *Checker) optimize(d *gen.Decoded) (*core.Result, error) {
	if ck.Search {
		return core.Optimize(d.Circuit, ck.Lib, ck.Opts, d.StepFrac)
	}
	rgn, err := core.Extract(d.Circuit, ck.Lib, core.ExtractOptions{SelectFrac: ck.Opts.SelectFrac})
	if err != nil {
		return nil, err
	}
	T0 := rgn.Baseline.MinPeriod * ck.Opts.Ru
	res, err := core.OptimizeAtPeriod(d.Circuit, ck.Lib, T0*(1-d.TFrac), ck.Opts)
	if err == nil && res == nil && d.TFrac > 0 {
		res, err = core.OptimizeAtPeriod(d.Circuit, ck.Lib, T0, ck.Opts)
	}
	return res, err
}

// CheckBytes decodes a fuzz input and checks it. Undecodable byte
// strings report Skip at stage "decode".
func (ck *Checker) CheckBytes(data []byte) *Report {
	d, err := gen.DecodeCase(data)
	if err != nil {
		return &Report{Outcome: Skip, Stage: "decode", Detail: err.Error()}
	}
	return ck.Check(d)
}
