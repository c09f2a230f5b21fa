// Package bench is the end-to-end benchmark of the VirtualSync
// reproduction. Four workloads drive the optimizer (flow), the
// incremental ECO path (eco-stream), the bit-parallel simulators
// (verify-wide) and the optimization service (service-mix) from outside,
// through the public functions of sizing, retime, core, sim and service
// and the service's HTTP API. An untraced run reports the end-to-end
// metrics; a traced run records spans around every call into a layer and
// reports per-layer metrics instead. cmd/vbench is the command line.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/lp"
)

// Workloads lists the workload names in BENCHMARK.json order.
var Workloads = []string{"flow", "eco-stream", "verify-wide", "service-mix"}

// metricDef names a reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEndMetrics lists the metrics an untraced run reports, on every
// workload. An op is one circuit's one-shot flow (flow), one ECO edit
// (eco-stream), one equivalence check (verify-wide) or one job
// (service-mix). A run's ops are a fixed set of distinct operations
// whose costs cluster (eco-stream's first seven edits take 1 to 3.7 s,
// the rest 0.2 to 0.4 s), so a percentile over them jumps between
// clusters from run to run while their throughput holds steady: the
// op latency percentiles are reported by traced runs only.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"period_reduction_pct", "%"},
	{"area_pct", "%"},
}

// perLayerMetrics lists the metrics a traced run reports, on every
// workload. Times are summed over the whole traced run: one set-up, the
// timed ops and their checks, so every workload reports a time for every
// layer it calls. The service is called only by service-mix, so its times are
// shares of the summed job latency there and 0 elsewhere.
var perLayerMetrics = []metricDef{
	{"bench.self_s", "s"}, {"bench.op_p50_ms", "ms"}, {"bench.op_p75_ms", "ms"},
	{"gen.self_s", "s"}, {"sizing.self_s", "s"}, {"retime.self_s", "s"},
	{"core.self_s", "s"}, {"sim.self_s", "s"},
	{"core.probe_count", "count"}, {"core.refine_count", "count"},
	{"core.probe_s", "s"}, {"core.probe_p50_ms", "ms"}, {"core.probe_feasible_ratio", "ratio"},
	{"core.replace_s", "s"}, {"core.optimize_self_s", "s"},
	{"lp.pivots", "count"}, {"lp.crash_pivots", "count"}, {"lp.bnb_nodes", "count"},
	{"lp.refactors", "count"}, {"lp.warm_hit_ratio", "ratio"},
	{"eco.edits", "count"}, {"eco.probes_per_edit", "count"}, {"eco.recovery_steps_per_edit", "count"},
	{"eco.spliced_ratio", "ratio"}, {"eco.plan_transfer_ratio", "ratio"}, {"eco.basis_transfer_ratio", "ratio"},
	{"eco.fallback_ratio", "ratio"}, {"eco.cone_nodes_p50", "count"}, {"sta.arrival_recomputed_per_edit", "count"},
	{"sim.checks", "count"}, {"sim.lanes", "count"}, {"sim.flagged_lanes", "count"},
	{"sim.reconfirm_calls", "count"}, {"sim.bitsim_sides", "count"}, {"sim.wavesim_sides", "count"},
	{"service.jobs", "count"}, {"service.queue_wait_share", "ratio"}, {"service.run_share", "ratio"},
	{"service.client_overhead_share", "ratio"},
	{"service.stage.baseline_share", "ratio"}, {"service.stage.solving_share", "ratio"},
	{"service.stage.legalizing_share", "ratio"}, {"service.stage.verifying_share", "ratio"},
	{"service.cache_hit_ratio", "ratio"}, {"service.eco_incremental_ratio", "ratio"},
	{"service.eco_fallback_ratio", "ratio"},
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds sizes the timed work; see config.
	Seconds int
	Trace   bool
	// TraceOut, when set, receives a traced run's spans as JSON.
	TraceOut string
	// Quick swaps every circuit for one small circuit and sets up once:
	// a smoke scale for tests, not for measurement.
	Quick bool
	// Log receives failure notes and the traced run's layer table.
	Log io.Writer
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is everything one run produced.
type Report struct {
	Host   Host
	Result Result
	Spans  []Span
}

// Run executes one workload and returns its report. Failed operations
// and failed correctness checks are counted in the result, never fatal;
// an error means the workload could not be set up.
func Run(ctx context.Context, o Options) (*Report, error) {
	cfg := paperConfig()
	if o.Quick {
		cfg = quickConfig()
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	r := &run{ctx: ctx, opts: o, cfg: cfg, lib: celllib.Default(), tr: newTracer(o.Trace), n: map[string]float64{}}
	var err error
	switch o.Workload {
	case "flow":
		err = runFlow(r)
	case "eco-stream":
		err = runECO(r)
	case "verify-wide":
		err = runVerify(r)
	case "service-mix":
		err = runService(r)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, Workloads)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	rep := &Report{Host: newHost(o), Spans: r.tr.Spans()}
	rep.Result = Result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	rep.Host.Samples["setup"] = len(r.setupS)
	rep.Host.Samples["ops"] = len(r.opMS)
	if o.Trace {
		rep.Result.Metrics = r.perLayer(rep.Spans)
		writeLayerTable(o.Log, rep.Spans)
		if o.TraceOut != "" {
			if err := writeSpans(o.TraceOut, rep.Spans); err != nil {
				return nil, err
			}
		}
	} else {
		rep.Result.Metrics = r.endToEnd()
	}
	return rep, nil
}

// run is the state of one benchmark run. Service clients record from
// two goroutines, so the sample fields are guarded by mu.
type run struct {
	ctx  context.Context
	opts Options
	cfg  config
	lib  *celllib.Library
	tr   *tracer

	mu        sync.Mutex
	setupS    []float64
	opMS      []float64
	busy      time.Duration // ops' summed time, or the concurrent region's wall
	attempted int
	failed    int
	nt, area  []float64          // QoR of each counted optimization result
	n         map[string]float64 // per-layer counters
	cones     []float64          // ECO dirty-cone sizes
}

// maxSetupReps caps the repetitions of a cheap set-up.
const maxSetupReps = 100

// setUp builds a workload's state cfg.setupReps times, and more while
// they total less than cfg.minSetup, so that a millisecond set-up still
// yields a steady median. It records each wall time and keeps the last
// state; drop releases a discarded one. As before an op, a garbage
// collection precedes each build. A traced run reports no setup_s and
// sets up once.
func setUp[T any](r *run, build func(sp int) (T, error), drop func(T)) (T, error) {
	reps, least := r.cfg.setupReps, r.cfg.minSetup
	if r.opts.Trace {
		reps, least = 1, 0
	}
	var last T
	spent := time.Duration(0)
	for i := 0; i < reps || (spent < least && i < maxSetupReps); i++ {
		if i > 0 && drop != nil {
			drop(last)
		}
		runtime.GC()
		sp := r.tr.Begin("bench.setup", "setup", 0)
		start := time.Now()
		v, err := build(sp)
		d := time.Since(start)
		r.tr.End(sp)
		if err != nil {
			return v, err
		}
		r.setupS = append(r.setupS, d.Seconds())
		spent += d
		last = v
	}
	return last, nil
}

// op times call as one operation under a bench.op span, then runs check
// (when non-nil) outside the clock under a bench.check span. An error
// from either marks the operation failed. A garbage collection before
// the clock starts keeps one op's garbage out of the next op's time.
func (r *run) op(trace string, call, check func(sp int) error) {
	runtime.GC()
	sp := r.tr.Begin("bench.op", trace, 0)
	start := time.Now()
	err := call(sp)
	d := time.Since(start)
	r.tr.End(sp)
	if err == nil && check != nil {
		csp := r.tr.Begin("bench.check", trace, 0)
		err = check(csp)
		r.tr.End(csp)
	}
	r.record(trace, d, err)
	r.mu.Lock()
	r.busy += d
	r.mu.Unlock()
}

// record counts one finished operation.
func (r *run) record(trace string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.opts.Log, "vbench: %s %s: %v\n", r.opts.Workload, trace, err)
		return
	}
	r.opMS = append(r.opMS, float64(d)/float64(time.Millisecond))
}

func (r *run) add(key string, v float64) {
	r.mu.Lock()
	r.n[key] += v
	r.mu.Unlock()
}

// qor counts one optimization result toward period_reduction_pct and
// area_pct.
func (r *run) qor(nt, areaPct float64) {
	r.mu.Lock()
	r.nt = append(r.nt, nt)
	r.area = append(r.area, areaPct)
	r.mu.Unlock()
}

func (r *run) qorOf(res *core.Result) {
	r.qor(res.PeriodReductionPct(), 100*res.Area/res.BaselineArea)
}

func (r *run) addSolver(s lp.Stats) {
	r.add("lp.pivots", float64(s.Pivots()))
	r.add("lp.crash_pivots", float64(s.CrashPivots))
	r.add("lp.bnb_nodes", float64(s.Nodes))
	r.add("lp.refactors", float64(s.Refactors))
	r.add("lp.warm", float64(s.WarmStarts))
	r.add("lp.cold", float64(s.ColdStarts))
}

// mean sums in sorted order, so the same values in any order give the
// same bits: QoR metrics are compared with a bound of 0.
func mean(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s := 0.0
	for _, x := range d {
		s += x
	}
	return ratio(s, float64(len(d)))
}

func (r *run) endToEnd() map[string]Metric {
	v := map[string]float64{
		"setup_s":              median(r.setupS),
		"ops_per_s":            ratio(float64(len(r.opMS)), r.busy.Seconds()),
		"peak_rss_mb":          peakRSSMB(),
		"period_reduction_pct": mean(r.nt),
		"area_pct":             mean(r.area),
	}
	return metrics(endToEndMetrics, v)
}

func (r *run) perLayer(spans []Span) map[string]Metric {
	total, self := spanTimes(spans)
	layer := layerTimes(self)
	var opMS, probeMS []float64
	for _, s := range spans {
		ms := float64(s.End-s.Start) / float64(time.Millisecond)
		switch s.Name {
		case "bench.op":
			opMS = append(opMS, ms)
		case "core.probe":
			probeMS = append(probeMS, ms)
		}
	}
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), total["service.job"].Seconds()) }
	n := r.n
	edits, jobs, ecoJobs := n["eco.edits"], n["service.jobs"], n["service.eco_jobs"]
	_, _, opP75 := quartiles(opMS)
	v := map[string]float64{
		"bench.op_p50_ms":                 median(opMS),
		"bench.op_p75_ms":                 opP75,
		"core.probe_count":                n["core.probe_count"],
		"core.refine_count":               n["core.refine_count"],
		"core.probe_s":                    total["core.probe"].Seconds(),
		"core.probe_p50_ms":               median(probeMS),
		"core.probe_feasible_ratio":       ratio(n["core.feasible"], n["core.probe_count"]+n["core.refine_count"]),
		"core.replace_s":                  total["core.replace"].Seconds(),
		"core.optimize_self_s":            (self["core.optimize"] + self["core.new_session"]).Seconds(),
		"lp.pivots":                       n["lp.pivots"],
		"lp.crash_pivots":                 n["lp.crash_pivots"],
		"lp.bnb_nodes":                    n["lp.bnb_nodes"],
		"lp.refactors":                    n["lp.refactors"],
		"lp.warm_hit_ratio":               ratio(n["lp.warm"], n["lp.warm"]+n["lp.cold"]),
		"eco.edits":                       edits,
		"eco.probes_per_edit":             ratio(n["eco.probes"], edits),
		"eco.recovery_steps_per_edit":     ratio(n["eco.recovery_steps"], edits),
		"eco.spliced_ratio":               ratio(n["eco.spliced"], edits),
		"eco.plan_transfer_ratio":         ratio(n["eco.plan_transfer"], edits),
		"eco.basis_transfer_ratio":        ratio(n["eco.basis_transfer"], edits),
		"eco.fallback_ratio":              ratio(n["eco.fallback"], edits),
		"eco.cone_nodes_p50":              median(r.cones),
		"sta.arrival_recomputed_per_edit": ratio(n["sta.arrival_recomputed"], n["sta.incremental"]),
		"sim.checks":                      n["sim.checks"],
		"sim.lanes":                       n["sim.lanes"],
		"sim.flagged_lanes":               n["sim.flagged_lanes"],
		"sim.reconfirm_calls":             n["sim.reconfirm_calls"],
		"sim.bitsim_sides":                n["sim.bitsim_sides"],
		"sim.wavesim_sides":               n["sim.wavesim_sides"],
		"service.jobs":                    jobs,
		"service.queue_wait_share":        share(total["service.queue"]),
		"service.run_share":               share(total["service.run"]),
		"service.client_overhead_share":   share(self["service.job"]),
		"service.stage.baseline_share":    share(total["service.stage.baseline"]),
		"service.stage.solving_share":     share(total["service.stage.solving"]),
		"service.stage.legalizing_share":  share(total["service.stage.legalizing"]),
		"service.stage.verifying_share":   share(total["service.stage.verifying"]),
		"service.cache_hit_ratio":         ratio(n["service.cache_hits"], jobs),
		"service.eco_incremental_ratio":   ratio(n["service.eco_incremental"], ecoJobs),
		"service.eco_fallback_ratio":      ratio(n["service.eco_fallback"], ecoJobs),
	}
	for _, l := range []string{"bench", "gen", "sizing", "retime", "core", "sim"} {
		v[l+".self_s"] = layer[l].Seconds()
	}
	return metrics(perLayerMetrics, v)
}

func metrics(defs []metricDef, v map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.Name] = Metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}
