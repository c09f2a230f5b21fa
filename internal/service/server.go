package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
	"virtualsync/internal/sim"
)

// Config sizes the optimization server.
type Config struct {
	// Workers is the optimization worker pool size (default: GOMAXPROCS).
	Workers int
	// QueueCap bounds the pending-job queue; submissions beyond it get
	// 503 (default 64).
	QueueCap int
	// CacheEntries is the LRU result-cache capacity (default 256).
	CacheEntries int
	// JobTimeout is the per-job deadline (default 5m). A job's
	// Params.TimeoutMS can shorten it, never extend it.
	JobTimeout time.Duration
	// Lib is the default cell library for requests that do not carry
	// their own (default: the built-in 45nm-style library).
	Lib *celllib.Library
}

const (
	// sessionEntries bounds the live optimization sessions kept for
	// incremental (ECO) re-optimization. Sessions hold the extracted
	// region and last plan, so they are much heavier than cached results.
	sessionEntries = 32
	// jobEntries bounds the finished jobs the server remembers. Each keeps
	// its parsed netlist, result and event log, so past this many the
	// oldest terminal jobs are forgotten and answer 404. Queued and
	// running jobs are never forgotten.
	jobEntries = 256
	// maxBody caps request bodies in bytes.
	maxBody = 32 << 20
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.Lib == nil {
		c.Lib = celllib.Default()
	}
	return c
}

// job is one tracked submission.
type job struct {
	id  string
	seq int // creation order, the number in id
	key string

	circuit *netlist.Circuit
	lib     *celllib.Library
	params  Params
	edits   []netlist.Edit
	baseJob string

	mu       sync.Mutex
	state    string
	stage    string
	cacheHit bool
	deduped  bool
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	result   *JobResult
	events   []Event
	changed  chan struct{} // closed and replaced on every update
	cancel   context.CancelFunc

	// waiters are identical submissions attached to this in-flight
	// primary; guarded by Server.mu, not job.mu.
	waiters []*job
}

// done reports whether j has reached a terminal state.
func (j *job) done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return isTerminal(j.state)
}

func isTerminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateTimeout, StateCanceled:
		return true
	}
	return false
}

// emitLocked appends an event and wakes streamers. Callers hold j.mu.
func (j *job) emitLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job) setStage(stage string) {
	j.mu.Lock()
	j.stage = stage
	j.emitLocked(Event{State: j.state, Stage: stage})
	j.mu.Unlock()
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		CacheHit: j.cacheHit,
		Deduped:  j.deduped,
		Created:  j.created,
		Error:    j.errMsg,
	}
	if j.state == StateRunning {
		st.Stage = j.stage
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if isTerminal(j.state) {
		st.Result = j.result
	}
	return st
}

// Server is the optimization-as-a-service HTTP server: it parses and
// canonicalizes submissions, deduplicates them against the result cache
// and in-flight identical jobs, schedules the extract→LP→legalize→
// discretize pipeline on a bounded worker pool, and streams progress.
type Server struct {
	cfg      Config
	sched    *Scheduler
	cache    *Cache
	reg      *Registry
	sessions *sessionStore
	mux      *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job
	nextID   int

	mSubmitted   *Counter
	mCompleted   *CounterVec
	mExecuted    *Counter
	mPanicked    *Counter
	mCacheHits   *Counter
	mCacheMisses *Counter
	mPivots      *Counter
	mNodes       *Counter
	mWarmStarts  *Counter
	mColdStarts  *Counter
	mLatency     *Histogram

	mECOIncremental *Counter
	mECOCold        *Counter
	mECOFallback    *Counter

	mVerifiedLanes *Counter

	// preRun, when non-nil, runs at the head of every executed pipeline
	// (test hook for deterministic timeout/cancel/shutdown scenarios).
	preRun func(ctx context.Context, j *job)
}

// New starts an optimization server. The context is the base lifetime
// of the worker pool; Shutdown drains it.
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sched:    NewScheduler(ctx, cfg.Workers, cfg.QueueCap),
		cache:    NewCache(cfg.CacheEntries),
		reg:      NewRegistry(),
		sessions: newSessionStore(sessionEntries),
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
	}
	s.mSubmitted = s.reg.Counter("vsync_jobs_submitted_total", "Jobs accepted over HTTP.")
	s.mCompleted = s.reg.CounterVec("vsync_jobs_completed_total", "Jobs finished, by terminal state.", "state")
	s.mExecuted = s.reg.Counter("vsync_jobs_executed_total", "Optimization pipelines actually run (cache hits and deduplicated submissions excluded).")
	s.mPanicked = s.reg.Counter("vsync_jobs_panicked_total", "Pipelines that panicked; each failed its job and the server kept serving.")
	s.mCacheHits = s.reg.Counter("vsync_cache_hits_total", "Submissions served from the content-hash result cache.")
	s.mCacheMisses = s.reg.Counter("vsync_cache_misses_total", "Submissions that had to run the pipeline.")
	s.mPivots = s.reg.Counter("vsync_solver_pivots_total", "Simplex pivots spent by completed jobs.")
	s.mNodes = s.reg.Counter("vsync_solver_bnb_nodes_total", "Branch-and-bound nodes solved by completed jobs.")
	s.mWarmStarts = s.reg.Counter("vsync_solver_warm_starts_total", "LP solves seeded from a prior basis.")
	s.mColdStarts = s.reg.Counter("vsync_solver_cold_starts_total", "LP solves from the all-slack basis.")
	s.mLatency = s.reg.Histogram("vsync_job_duration_seconds", "End-to-end job latency (submission to terminal state).",
		[]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	s.reg.Gauge("vsync_queue_depth", "Jobs waiting for a worker.", func() float64 { return float64(s.sched.QueueDepth()) })
	s.reg.Gauge("vsync_workers_busy", "Workers currently optimizing.", func() float64 { return float64(s.sched.Busy()) })
	s.reg.Gauge("vsync_workers", "Worker pool size.", func() float64 { return float64(s.sched.Workers()) })
	s.mECOIncremental = s.reg.Counter("vsync_eco_incremental_total", "ECO jobs served from a live session via incremental re-optimization.")
	s.mECOCold = s.reg.Counter("vsync_eco_cold_total", "ECO jobs that found no session and ran the cold pipeline.")
	s.mECOFallback = s.reg.Counter("vsync_eco_fallback_total", "Incremental attempts that degraded to the cold period search internally.")
	s.mVerifiedLanes = s.reg.Counter("vsync_verify_lanes_total", "Independent stimulus lanes covered by equivalence verification.")
	s.reg.Gauge("vsync_cache_entries", "Results held in the LRU cache.", func() float64 { return float64(s.cache.Len()) })
	s.reg.Gauge("vsync_sessions", "Live optimization sessions held for ECO re-use.", func() float64 { return float64(s.sessions.Len()) })
	s.reg.Gauge("vsync_jobs_inflight", "Tracked jobs not yet in a terminal state.", s.inflightCount)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops accepting work and drains: every accepted job still
// runs to a terminal state. If ctx ends first, in-flight pipelines are
// cancelled (they finish as canceled) and Shutdown returns ctx.Err()
// after the workers come home.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.sched.Drain(ctx)
}

func (s *Server) inflightCount() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !j.done() {
			n++
		}
	}
	return float64(n)
}

// forgetJobsLocked drops the oldest terminal jobs while more than
// jobEntries are tracked. Queued and running jobs stay. Callers hold s.mu.
func (s *Server) forgetJobsLocked() {
	var done []*job
	for _, j := range s.jobs {
		if j.done() {
			done = append(done, j)
		}
	}
	if len(done) <= jobEntries {
		return
	}
	sort.Slice(done, func(a, b int) bool { return done[a].seq < done[b].seq })
	for _, j := range done[:len(done)-jobEntries] {
		delete(s.jobs, j.id)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// newJobLocked creates and tracks a job. Callers hold s.mu.
func (s *Server) newJobLocked(key string, c *netlist.Circuit, lib *celllib.Library, p Params) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j%06d", s.nextID),
		seq:     s.nextID,
		key:     key,
		circuit: c,
		lib:     lib,
		params:  p,
		state:   StateQueued,
		created: time.Now(),
		changed: make(chan struct{}),
	}
	j.events = []Event{{Seq: 0, State: StateQueued}}
	s.jobs[j.id] = j
	return j
}

// maxVerifyLaneCycles bounds the equivalence simulation one job may ask
// for, verify_cycles × max(verify_lanes, 1). The stimulus holds that
// many values per primary input, and running out of memory kills the
// process, which runJob's recover cannot catch. The budget admits 48
// cycles at sim.MaxLanes lanes, the widest check the CLI runs.
const maxVerifyLaneCycles = 1 << 18

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	edits, err := netlist.ParseEdits(req.Edits)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid edits: %v", err)
		return
	}
	if req.BaseJob != "" && len(edits) == 0 {
		httpError(w, http.StatusBadRequest, "base_job requires a non-empty edit list")
		return
	}
	// A netlist is mandatory except for ECO jobs addressed by base_job,
	// which edit a session the server already holds.
	var c *netlist.Circuit
	if strings.TrimSpace(req.Netlist) == "" {
		if req.BaseJob == "" {
			httpError(w, http.StatusBadRequest, "empty netlist")
			return
		}
	} else {
		name := req.Name
		if name == "" {
			name = "job"
		}
		c, err = netlist.Parse(strings.NewReader(req.Netlist), name)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid netlist: %v", err)
			return
		}
	}
	lib := s.cfg.Lib
	if req.Library != "" {
		lib, err = celllib.ParseLibraryString(req.Library)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid library: %v", err)
			return
		}
	}
	params := req.Params.Normalize()
	if params.SelectFrac > 1 {
		httpError(w, http.StatusBadRequest, "select_frac %g out of (0,1]", params.SelectFrac)
		return
	}
	if params.VerifyCycles > maxVerifyLaneCycles/max(params.VerifyLanes, 1) {
		httpError(w, http.StatusBadRequest, "verify_cycles %d x verify_lanes %d exceeds the limit of %d lane-cycles",
			params.VerifyCycles, params.VerifyLanes, maxVerifyLaneCycles)
		return
	}
	var key string
	if c != nil {
		key, err = CacheKey(c, lib, params)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	if len(edits) > 0 {
		// The edit list (and base reference) shapes the result, so it is
		// part of the identity the cache and dedup operate on.
		key = ecoKey(key, req.BaseJob, edits)
	}
	s.mSubmitted.Inc()

	s.mu.Lock()
	if res, ok := s.cache.Get(key); ok {
		// Served entirely from the content-hash cache: the job is born
		// terminal and no pipeline runs.
		j := s.newJobLocked(key, c, lib, params)
		j.mu.Lock()
		j.state = StateDone
		j.cacheHit = true
		now := time.Now()
		j.started, j.finished = now, now
		j.result = res
		j.emitLocked(Event{State: StateDone, Message: "served from result cache"})
		j.mu.Unlock()
		s.forgetJobsLocked()
		s.mu.Unlock()
		s.mCacheHits.Inc()
		s.mCompleted.With(StateDone).Inc()
		s.mLatency.Observe(0)
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	if primary, ok := s.inflight[key]; ok {
		// Identical submission already queued or running: attach to it so
		// the pipeline runs exactly once for the whole group.
		j := s.newJobLocked(key, c, lib, params)
		j.mu.Lock()
		j.deduped = true
		j.emitLocked(Event{State: StateQueued, Message: "deduplicated against job " + primary.id})
		j.mu.Unlock()
		primary.waiters = append(primary.waiters, j)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	j := s.newJobLocked(key, c, lib, params)
	j.edits = edits
	j.baseJob = req.BaseJob
	s.inflight[key] = j
	s.mu.Unlock()
	s.mCacheMisses.Inc()

	if !s.sched.TrySubmit(func(ctx context.Context) { s.runJob(ctx, j) }) {
		s.finishJob(j, StateQueued, StateFailed, nil, "job queue full", false)
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "job queue full (capacity %d)", s.cfg.QueueCap)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		st.Result = nil // keep the listing light
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	// Queued jobs are cancelled in place (the worker later skips them);
	// running jobs get their pipeline context cancelled and finish as
	// canceled through the normal completion path.
	if !s.finishJob(j, StateQueued, StateCanceled, nil, "canceled before start", false) {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	for {
		j.mu.Lock()
		pending := append([]Event(nil), j.events[idx:]...)
		idx = len(j.events)
		terminal := isTerminal(j.state)
		changed := j.changed
		j.mu.Unlock()
		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if fl != nil && len(pending) > 0 {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w)
}

// finishJob moves j (and, for a primary, every attached waiter) to a
// terminal state exactly once and records completion metrics. onlyFrom,
// when non-empty, makes the transition conditional on the current state
// (used to cancel still-queued jobs without racing their worker). It
// reports whether j transitioned.
func (s *Server) finishJob(j *job, onlyFrom, state string, res *JobResult, errMsg string, executed bool) bool {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	waiters := j.waiters
	j.waiters = nil
	s.mu.Unlock()

	ok := s.completeOne(j, onlyFrom, state, res, errMsg)
	if ok && executed && res != nil {
		s.mExecuted.Inc()
		s.mPivots.Add(float64(res.Solver.Pivots))
		s.mNodes.Add(float64(res.Solver.BnBNodes))
		s.mWarmStarts.Add(float64(res.Solver.WarmStarts))
		s.mColdStarts.Add(float64(res.Solver.ColdStarts))
	}
	for _, w := range waiters {
		s.completeOne(w, "", state, res, errMsg)
	}
	s.mu.Lock()
	s.forgetJobsLocked()
	s.mu.Unlock()
	return ok
}

func (s *Server) completeOne(j *job, onlyFrom, state string, res *JobResult, errMsg string) bool {
	j.mu.Lock()
	if isTerminal(j.state) || (onlyFrom != "" && j.state != onlyFrom) {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.stage = ""
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	latency := j.finished.Sub(j.created)
	j.emitLocked(Event{State: state, Message: errMsg})
	j.mu.Unlock()
	s.mCompleted.With(state).Inc()
	if state == StateDone {
		s.mLatency.Observe(latency.Seconds())
	}
	return true
}

// runJob executes one scheduled pipeline on a worker.
func (s *Server) runJob(base context.Context, j *job) {
	// Skip jobs cancelled while queued.
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.emitLocked(Event{State: StateRunning})
	timeout := s.cfg.JobTimeout
	if ms := j.params.TimeoutMS; ms > 0 && ms < timeout.Milliseconds() {
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(base, timeout)
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()
	// A panic anywhere in the pipeline fails this job only: the stack
	// goes to its event stream, and finishJob releases its waiters.
	defer func() {
		if r := recover(); r != nil {
			s.mPanicked.Inc()
			j.mu.Lock()
			j.emitLocked(Event{State: StateRunning, Message: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())})
			j.mu.Unlock()
			s.finishJob(j, "", StateFailed, nil, fmt.Sprintf("internal error: panic: %v", r), false)
		}
	}()

	res, err := s.execute(ctx, j)
	switch {
	case err == nil:
		s.cache.Put(j.key, res)
		s.finishJob(j, "", StateDone, res, "", true)
	case errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, "", StateTimeout, nil, "job deadline exceeded", false)
	case errors.Is(err, context.Canceled):
		s.finishJob(j, "", StateCanceled, nil, "canceled", false)
	default:
		s.finishJob(j, "", StateFailed, nil, err.Error(), false)
	}
}

// execute runs one job to a result: the cold pipeline for plain
// submissions, the incremental path for jobs carrying an edit list.
func (s *Server) execute(ctx context.Context, j *job) (*JobResult, error) {
	if s.preRun != nil {
		s.preRun(ctx, j)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(j.edits) > 0 {
		return s.executeECO(ctx, j)
	}
	return s.executePlain(ctx, j, j.circuit, nil)
}

// executePlain runs the same pipeline as the one-shot vsync CLI — the
// retiming&sizing baseline (unless skipped), the VirtualSync period
// search, optional equivalence simulation — and serializes the result.
// Each circuit's pipeline is deterministic, so the emitted netlist is
// byte-identical to the CLI's for the same input. The search runs inside
// an optimization session that is kept for later ECO jobs.
func (s *Server) executePlain(ctx context.Context, j *job, c *netlist.Circuit, eco *ECOInfo) (*JobResult, error) {
	work := c
	if !j.params.SkipBaseline {
		j.setStage(StageBaseline)
		rt, _, err := retime.Baseline(c, j.lib)
		if err != nil {
			return nil, err
		}
		work = rt
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	j.setStage(StageSolving)
	sess, err := core.NewSession(ctx, work, j.lib, s.coreOptions(j), j.params.StepFrac, func(ev core.ProgressEvent) {
		stage := StageSolving
		if ev.Stage == "replace" {
			stage = StageLegalizing
		}
		feasible := ev.Feasible
		j.mu.Lock()
		j.stage = stage
		j.emitLocked(Event{
			State: StateRunning, Stage: stage, T: ev.T, Feasible: &feasible,
			Pivots: ev.Solver.Pivots(), BnBNodes: ev.Solver.Nodes,
		})
		j.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	out, err := s.buildResult(ctx, j, work, sess.Result, eco)
	if err != nil {
		return nil, err
	}
	// An ECO job's key is the edit-list identity, not a netlist content
	// key; its session is addressable by job ID only.
	key := j.key
	if eco != nil {
		key = ""
	}
	s.sessions.Put(sessionMeta{JobID: j.id, Key: key}, sess)
	return out, nil
}

// executeECO serves a job carrying an edit list: it resolves the base
// session (by job ID, then by netlist content key), re-optimizes
// incrementally, and degrades to the cold pipeline on the edited
// netlist when no session is live.
func (s *Server) executeECO(ctx context.Context, j *job) (*JobResult, error) {
	var (
		sess *core.Session
		meta sessionMeta
		ok   bool
	)
	if j.baseJob != "" {
		sess, meta, ok = s.sessions.TakeByJob(j.baseJob)
		if !ok {
			return nil, fmt.Errorf("no live optimization session for base job %q", j.baseJob)
		}
	} else {
		baseKey, err := CacheKey(j.circuit, j.lib, j.params)
		if err != nil {
			return nil, err
		}
		sess, meta, ok = s.sessions.TakeByKey(baseKey)
	}
	if !ok {
		// Cold ECO: apply the edits and run the full pipeline; the
		// session built along the way serves future edits incrementally.
		s.mECOCold.Inc()
		work := j.circuit.Clone()
		if _, err := work.ApplyEdits(j.edits); err != nil {
			return nil, err
		}
		return s.executePlain(ctx, j, work, &ECOInfo{Incremental: false, Edits: len(j.edits)})
	}

	j.setStage(StageSolving)
	res, st, err := sess.Reoptimize(ctx, j.edits)
	if err != nil {
		// The session is unchanged on error; keep it for another try.
		s.sessions.Put(meta, sess)
		return nil, err
	}
	s.mECOIncremental.Inc()
	if st.Fallback {
		s.mECOFallback.Inc()
	}
	out, err := s.buildResult(ctx, j, sess.Circuit, res, &ECOInfo{
		Incremental:   true,
		Edits:         len(j.edits),
		ConeNodes:     st.ConeNodes,
		Probes:        st.Probes,
		RecoverySteps: st.RecoverySteps,
		Fallback:      st.Fallback,
	})
	if err != nil {
		s.sessions.Put(meta, sess)
		return nil, err
	}
	s.sessions.Put(sessionMeta{JobID: j.id}, sess)
	return out, nil
}

func (s *Server) coreOptions(j *job) core.Options {
	opts := core.DefaultOptions()
	opts.SelectFrac = j.params.SelectFrac
	opts.UseLatches = *j.params.UseLatches
	opts.BufferReplace = *j.params.BufferReplace
	return opts
}

// buildResult converts an optimization result into the wire form,
// running the optional equivalence simulation against base (the
// pre-optimization netlist the result was computed from).
func (s *Server) buildResult(ctx context.Context, j *job, base *netlist.Circuit, res *core.Result, eco *ECOInfo) (*JobResult, error) {
	out := &JobResult{
		BaselinePeriod:     res.BaselinePeriod,
		Period:             res.Period,
		PeriodReductionPct: res.PeriodReductionPct(),
		BaselineArea:       res.BaselineArea,
		Area:               res.Area,
		NumFFUnits:         res.NumFFUnits,
		NumLatchUnits:      res.NumLatchUnits,
		NumBuffers:         res.NumBuffers,
		RemovedFFs:         res.RemovedFFs,
		Solver:             solverStatsFrom(res.Solver),
		RuntimeMS:          res.Runtime.Milliseconds(),
		ECO:                eco,
	}
	if j.params.VerifyCycles > 0 {
		j.setStage(StageVerifying)
		if err := s.verifyEquivalence(j, base, res, out); err != nil {
			return nil, fmt.Errorf("equivalence sim: %w", err)
		}
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, res.Circuit); err != nil {
		return nil, err
	}
	out.Netlist = buf.String()
	return out, nil
}

// verifyEquivalence fills out's equivalence fields from the flow's one
// verdict, sim.CheckEquivalence, over VerifyLanes stimulus lanes (0 or
// 1: the historical single vector on the event-engine oracle).
func (s *Server) verifyEquivalence(j *job, base *netlist.Circuit, res *core.Result, out *JobResult) error {
	const verifySeed = 1
	stims := sim.LaneStimulus(base, j.params.VerifyCycles, 0, verifySeed, max(j.params.VerifyLanes, 1))
	v, err := sim.CheckEquivalence(base, res.Circuit, j.lib,
		res.BaselinePeriod, res.Period, res.VerifyWarmup(), stims)
	if err != nil {
		return err
	}
	ok := v.OK()
	out.EquivOK = &ok
	out.Mismatches = len(v.Mismatches)
	out.VerifiedLanes = v.Lanes
	s.mVerifiedLanes.Add(float64(v.Lanes))
	return nil
}
