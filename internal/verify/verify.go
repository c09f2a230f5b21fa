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
// The harness has two consumers: native Go fuzz targets (fuzz_test.go)
// over the byte-string decoder in internal/gen, whose failures report a
// shrunk regression seed, and a mutation smoke mode (mutate.go) that
// injects known bug classes into the optimization result and demands
// the checker catches each one.
package verify

import (
	"context"
	"fmt"
	"strings"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/gen"
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
	// Lanes selects the stimulus width, 1..sim.MaxLanes; 0 means the
	// default 64. One lane runs the pure event-engine oracle on the
	// historical vector; widths beyond 64 pack multiple machine words
	// per value (K = ceil(Lanes/64)).
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

// defaultLanes is the stimulus width when the checker does not select
// one: one lane per bit of a machine word.
const defaultLanes = 64

// LaneWidth reports the effective stimulus width: the configured Lanes
// after applying the default and the sim.MaxLanes cap.
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

// simStage runs the differential simulation on d's stimulus knobs and
// writes the verdict of sim.CheckEquivalence into rep. Lane 0 is the
// historical single-vector stimulus, so a one-lane checker reproduces
// the pure event-engine oracle byte for byte, and every Fail carries
// oracle mismatches the shrinker and regression flow can replay.
func (ck *Checker) simStage(d *gen.Decoded, res *core.Result, rep *Report) {
	stims := sim.LaneStimulus(d.Circuit, d.Cycles, resetCycles(d), d.StimSeed, ck.laneCount())
	if r := unflushed(d.Circuit, stims[0], d.Warmup); r != nil {
		rep.Outcome = Skip
		rep.Stage = "reset"
		rep.Detail = fmt.Sprintf("register %q keeps its power-on state past warm-up cycle %d", r.Name, d.Warmup)
		return
	}
	v, err := sim.CheckEquivalence(d.Circuit, res.Circuit, ck.Lib,
		res.BaselinePeriod, res.Period, d.Warmup, stims)
	if err != nil {
		rep.Outcome = Fail
		rep.Stage = "sim"
		rep.Detail = err.Error()
		return
	}
	rep.Lanes = v.Lanes
	rep.FastPath = v.FastPath
	if v.OK() {
		return
	}
	rep.Outcome = Fail
	rep.Stage = "sim"
	rep.Detail = fmt.Sprintf("%d trace mismatches, first %v", len(v.Mismatches), v.Mismatches[0])
	if v.FailLane > 0 {
		rep.Detail = fmt.Sprintf("lane %d: %s", v.FailLane, rep.Detail)
	}
	rep.Mismatches = v.Mismatches
	rep.FailLane = v.FailLane
}

// resetCycles is the length of the zero-input reset prefix: feedback
// state is flushed through input-driven masks before random stimulus
// starts, so post-warmup comparison never depends on power-on register
// contents (which register relocation legitimately changes). Check
// skips cases whose original the prefix cannot flush.
func resetCycles(d *gen.Decoded) int {
	return max(d.Warmup-4, 0)
}

// optimize runs the pipeline at one target period, T0*(1-TFrac), falling
// back to the margined baseline T0: the identical flow the period search
// probes, an order of magnitude faster than the whole search. A (nil,
// nil) return means no feasible solution at the probed period — a Skip,
// not a bug.
func (ck *Checker) optimize(d *gen.Decoded) (*core.Result, error) {
	rgn, err := core.Extract(d.Circuit, ck.Lib, core.ExtractOptions{SelectFrac: ck.Opts.SelectFrac})
	if err != nil {
		return nil, err
	}
	T0 := rgn.Baseline.MinPeriod * ck.Opts.Ru
	res, err := core.OptimizeAtPeriod(context.Background(), d.Circuit, ck.Lib, T0*(1-d.TFrac), ck.Opts)
	if err == nil && res == nil && d.TFrac > 0 {
		res, err = core.OptimizeAtPeriod(context.Background(), d.Circuit, ck.Lib, T0, ck.Opts)
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
