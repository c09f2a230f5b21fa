package service

import (
	"time"

	"virtualsync/internal/core"
	"virtualsync/internal/lp"
	"virtualsync/internal/sim"
)

// Job lifecycle states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateTimeout  = "timeout"
	StateCanceled = "canceled"
)

// Pipeline stages reported while a job is running.
const (
	StageBaseline   = "baseline"   // retiming&sizing baseline flow
	StageSolving    = "solving"    // period search (LP probes)
	StageLegalizing = "legalizing" // final buffer-replacement rerun
	StageVerifying  = "verifying"  // functional-equivalence simulation
)

// Params are the optimizer knobs accepted over the wire. Zero values
// mean "paper default"; Normalize resolves them.
type Params struct {
	// StepFrac is the period-search step fraction (default 0.005).
	StepFrac float64 `json:"step_frac,omitempty"`
	// SelectFrac is the critical-path selection fraction in (0,1]
	// (default 0.95); a value above 1 is rejected.
	SelectFrac float64 `json:"select_frac,omitempty"`
	// UseLatches enables latch delay units (default true).
	UseLatches *bool `json:"use_latches,omitempty"`
	// BufferReplace enables the paper 5.4 area-recovery pass (default true).
	BufferReplace *bool `json:"buffer_replace,omitempty"`
	// SkipBaseline treats the input as already retimed and sized.
	SkipBaseline bool `json:"skip_baseline,omitempty"`
	// VerifyCycles runs functional-equivalence simulation over this many
	// cycles (0: skip).
	VerifyCycles int `json:"verify_cycles,omitempty"`
	// VerifyLanes selects how many independent stimulus lanes the
	// equivalence simulation covers (0 or 1: the single historical
	// vector on the scalar event engine; >1: bit-parallel engines with
	// event-engine lane-0 calibration, capped at sim.MaxLanes). Ignored
	// when VerifyCycles is 0.
	VerifyLanes int `json:"verify_lanes,omitempty"`
	// TimeoutMS bounds the job end to end. The server's JobTimeout caps
	// it; 0 uses JobTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Normalize returns p with paper defaults filled in.
func (p Params) Normalize() Params {
	if p.StepFrac <= 0 {
		p.StepFrac = core.DefaultStepFrac
	}
	if p.SelectFrac <= 0 {
		p.SelectFrac = core.DefaultOptions().SelectFrac
	}
	t := true
	if p.UseLatches == nil {
		p.UseLatches = &t
	}
	if p.BufferReplace == nil {
		p.BufferReplace = &t
	}
	if p.VerifyCycles < 0 {
		p.VerifyCycles = 0
	}
	if p.VerifyLanes < 0 {
		p.VerifyLanes = 0
	}
	if p.VerifyLanes > sim.MaxLanes {
		p.VerifyLanes = sim.MaxLanes
	}
	if p.TimeoutMS < 0 {
		p.TimeoutMS = 0
	}
	return p
}

// JobRequest is the POST /v1/jobs payload.
type JobRequest struct {
	// Netlist is the circuit in the extended ISCAS89 .bench dialect.
	Netlist string `json:"netlist"`
	// Name labels the circuit (default "job"). It shapes only the
	// "# circuit" header of the returned netlist — the result cache key
	// ignores it.
	Name string `json:"name,omitempty"`
	// Library is an optional cell library in the internal/celllib text
	// format; empty selects the built-in 45nm-style library.
	Library string `json:"library,omitempty"`
	Params  Params `json:"params"`

	// Edits is an optional ECO edit script (one edit per line, see the
	// netlist edit grammar: resize/swap/rewire/insertff/removeff). When
	// set, the job re-optimizes incrementally from a prior session's
	// state instead of running the pipeline cold: the session is resolved
	// through BaseJob when given, otherwise through the content key of
	// Netlist. Without a resolvable session the edits are applied to
	// Netlist and the job runs the normal cold pipeline.
	Edits string `json:"edits,omitempty"`
	// BaseJob names a finished job whose optimization session the edits
	// apply to. Sessions are held in a bounded LRU, so very old jobs may
	// no longer resolve.
	BaseJob string `json:"base_job,omitempty"`
}

// ECOInfo describes how an incremental (ECO) job was served.
type ECOInfo struct {
	// Incremental is true when the job reused a prior session's state;
	// false means the cold pipeline ran (no session was found).
	Incremental bool `json:"incremental"`
	// Edits is the number of edits applied.
	Edits int `json:"edits,omitempty"`
	// Spliced is always false (every ECO rebuilds its region), so it is
	// never sent. It stays because the bench module still reads it.
	Spliced bool `json:"spliced,omitempty"`
	// ConeNodes, Probes and RecoverySteps mirror core.ECOStats.
	ConeNodes     int `json:"cone_nodes,omitempty"`
	Probes        int `json:"probes,omitempty"`
	RecoverySteps int `json:"recovery_steps,omitempty"`
	// Fallback marks an incremental attempt that degraded to the cold
	// period search internally.
	Fallback bool `json:"fallback,omitempty"`
}

// SolverStats mirrors lp.Stats in the wire format.
type SolverStats struct {
	Pivots     int `json:"pivots"`
	BnBNodes   int `json:"bnb_nodes"`
	WarmStarts int `json:"warm_starts"`
	ColdStarts int `json:"cold_starts"`
	// CrashPivots is always 0 and never sent; the bench module still
	// reads the field.
	CrashPivots int `json:"-"`
}

func solverStatsFrom(s lp.Stats) SolverStats {
	return SolverStats{
		Pivots:     s.Pivots(),
		BnBNodes:   s.Nodes,
		WarmStarts: s.WarmStarts,
		ColdStarts: s.ColdStarts,
	}
}

// JobResult is the outcome of a finished optimization.
type JobResult struct {
	// Netlist is the optimized circuit, byte-identical to what the
	// one-shot vsync CLI writes for the same input.
	Netlist string `json:"netlist"`

	BaselinePeriod     float64 `json:"baseline_period"`
	Period             float64 `json:"period"`
	PeriodReductionPct float64 `json:"period_reduction_pct"`
	BaselineArea       float64 `json:"baseline_area"`
	Area               float64 `json:"area"`

	NumFFUnits    int `json:"ff_units"`
	NumLatchUnits int `json:"latch_units"`
	NumBuffers    int `json:"buffers"`
	RemovedFFs    int `json:"removed_ffs"`

	// EquivOK is set when the request asked for equivalence simulation.
	EquivOK    *bool `json:"equiv_ok,omitempty"`
	Mismatches int   `json:"mismatches,omitempty"`
	// VerifiedLanes counts the independent stimulus lanes the
	// equivalence verdict covered (1 on the scalar event path).
	VerifiedLanes int `json:"verified_lanes,omitempty"`

	Solver    SolverStats `json:"solver"`
	RuntimeMS int64       `json:"runtime_ms"`

	// ECO is set on jobs that carried an edit list.
	ECO *ECOInfo `json:"eco,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} payload (and the submission
// response body).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Stage refines StateRunning; empty otherwise.
	Stage string `json:"stage,omitempty"`
	// CacheHit marks a job served entirely from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Deduped marks a job attached to an identical in-flight submission
	// (the pipeline ran once for the whole group).
	Deduped bool `json:"deduped,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// Event is one NDJSON line of a GET /v1/jobs/{id}/events stream.
type Event struct {
	Seq   int    `json:"seq"`
	State string `json:"state"`
	Stage string `json:"stage,omitempty"`
	// T is the period being probed (solving/legalizing stages).
	T        float64 `json:"t,omitempty"`
	Feasible *bool   `json:"feasible,omitempty"`
	// Pivots/BnBNodes are cumulative solver work counters.
	Pivots   int    `json:"pivots,omitempty"`
	BnBNodes int    `json:"bnb_nodes,omitempty"`
	Message  string `json:"message,omitempty"`
}
