package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
	"virtualsync/internal/prng"
	"virtualsync/internal/service"
)

// serviceClients is the closed-loop client count: one per core of the
// 2-CPU reference host, so two jobs contend for the cores.
const serviceClients = 2

// serviceParams are the job parameters of every submission: verification
// as vsync -verify 48 -verify-lanes 64 runs it.
var serviceParams = service.Params{VerifyCycles: verifyCycles, VerifyLanes: checkLanes}

type jobKind int

const (
	coldJob   jobKind = iota // a netlist the server has not seen
	ecoJob                   // a resize against an earlier cold job's session
	repeatJob                // an exact resubmission of an earlier cold job
)

// request is one planned submission of a client. ECO and repeat
// requests refer to the same client's cold request for their circuit,
// which has always finished by then, so a repeat always hits the cache
// and never joins an in-flight duplicate.
type request struct {
	kind    jobKind
	circuit int
	prefix  string // cold: the net-name prefix of its netlist
}

// servicePlan draws one client's share of one plan: a cold job per
// circuit and one follow-up of each cold job, an ECO job where follow
// has an 'E' and an exact repeat where it has an 'R'. The order is a
// seeded shuffle in which every follow-up comes at least two requests
// after its cold job. Every plan has the same jobs, so every seed costs
// the server the same work.
func servicePlan(seed int64, follow string, plan, client int) []request {
	idx := uint64(plan*serviceClients + client)
	rng := prng.New(uint64(subSeed(seed, streamPlan, idx)))
	var reqs []request
	for ci := range len(follow) {
		reqs = append(reqs, request{kind: coldJob, circuit: ci, prefix: namePrefix(seed, idx*uint64(len(follow))+uint64(ci))})
		kind := repeatJob
		if follow[ci] == 'E' {
			kind = ecoJob
		}
		reqs = append(reqs, request{kind: kind, circuit: ci})
	}
	for {
		for i := len(reqs) - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			reqs[i], reqs[j] = reqs[j], reqs[i]
		}
		if followUpsTrail(reqs) {
			return reqs
		}
	}
}

// followUpsTrail reports whether every follow-up in seq comes at least
// two requests after the cold job of its circuit.
func followUpsTrail(seq []request) bool {
	cold := map[int]int{}
	for i, q := range seq {
		if q.kind == coldJob {
			cold[q.circuit] = i
		} else if at, ok := cold[q.circuit]; !ok || i-at < 2 {
			return false
		}
	}
	return true
}

// svc is service-mix's set-up: an in-process server on a loopback
// listener, a client limited to one connection per client, and every
// planned request.
type svc struct {
	cancel context.CancelFunc
	srv    *service.Server
	ts     *httptest.Server
	hc     *http.Client

	names []string       // circuit names, the submissions' Name
	texts []string       // unprefixed netlists
	edits []netlist.Edit // per circuit: the ECO resize, by unprefixed name
	plans [][]request    // per client
}

func (sv *svc) close() {
	sv.ts.Close()
	sv.srv.Shutdown(context.Background())
	sv.cancel()
	sv.hc.CloseIdleConnections()
}

// outcome is one finished job as a client saw it.
type outcome struct {
	req     request
	trace   string
	status  service.JobStatus
	latency time.Duration
	err     error
}

// runService measures the optimization service under two closed-loop
// clients that follow each job's NDJSON event stream, then checks every
// job: done, equivalent, repeats byte-identical to their cold job, and
// one cold job byte-identical to the same flow run in process.
func runService(r *run) error {
	plans := count(r.opts.Seconds, r.cfg.servicePlansPerS)
	sv, err := setUp(r, func(sp int) (*svc, error) { return r.newSvc(sp, plans) }, (*svc).close)
	if err != nil {
		return err
	}
	defer sv.close()

	outs := make([][]outcome, serviceClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = r.client(sv, c)
		}(c)
	}
	wg.Wait()
	r.busy = time.Since(start)

	r.checkJobs(sv, outs)
	for _, jobs := range outs {
		for _, o := range jobs {
			r.record(o.trace, o.latency, o.err)
		}
	}
	return nil
}

func (r *run) newSvc(sp, plans int) (*svc, error) {
	sv := &svc{plans: make([][]request, serviceClients)}
	for _, s := range r.cfg.service {
		c, err := r.generate(s, s.Name, sp)
		if err != nil {
			return nil, err
		}
		text, err := benchText(c)
		if err != nil {
			return nil, err
		}
		// The ECO resize must change a drive of the session circuit, the
		// server's baseline of this netlist, so take it from the same
		// baseline run here.
		base, err := r.baseline(c, s.Name, sp)
		if err != nil {
			return nil, err
		}
		script := resizeScript(base, r.lib, 1)
		if len(script) == 0 {
			return nil, fmt.Errorf("%s: no resizable gate for the ECO jobs", s.Name)
		}
		sv.names = append(sv.names, s.Name)
		sv.texts = append(sv.texts, text)
		sv.edits = append(sv.edits, script[0])
	}
	for p := 0; p < plans; p++ {
		for c := range sv.plans {
			sv.plans[c] = append(sv.plans[c], servicePlan(r.opts.Seed, r.cfg.serviceFollowUps[c], p, c)...)
		}
	}
	ctx, cancel := context.WithCancel(r.ctx)
	sv.cancel = cancel
	sv.srv = service.New(ctx, service.Config{Workers: runtime.GOMAXPROCS(0)})
	sv.ts = httptest.NewServer(sv.srv.Handler())
	sv.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}}
	return sv, nil
}

// client runs one client's requests in order, each submitted only after
// the previous one finished.
func (r *run) client(sv *svc, c int) []outcome {
	cold := map[int]outcome{}
	var outs []outcome
	for k, q := range sv.plans[c] {
		o := outcome{req: q, trace: fmt.Sprintf("c%d.r%d", c, k)}
		jr := service.JobRequest{Params: serviceParams}
		switch q.kind {
		case coldJob:
			jr.Name, jr.Netlist = sv.names[q.circuit], renameNets(sv.texts[q.circuit], q.prefix)
		case repeatJob:
			jr.Name, jr.Netlist = sv.names[q.circuit], renameNets(sv.texts[q.circuit], cold[q.circuit].req.prefix)
		case ecoJob:
			e := sv.edits[q.circuit]
			e.Node = cold[q.circuit].req.prefix + e.Node
			jr.BaseJob, jr.Edits = cold[q.circuit].status.ID, netlist.FormatEdit(e)
		}
		body, err := json.Marshal(jr)
		if err != nil {
			o.err = err
		} else {
			o.status, o.latency, o.err = r.job(sv, body, o.trace)
		}
		if q.kind == coldJob {
			cold[q.circuit] = o
		}
		outs = append(outs, o)
	}
	return outs
}

// job submits one request, follows its event stream to the end and
// fetches the final status. The latency runs from submission to the
// final status.
func (r *run) job(sv *svc, body []byte, trace string) (service.JobStatus, time.Duration, error) {
	op := r.tr.Begin("bench.op", trace, 0)
	js := r.tr.Begin("service.job", trace, op)
	start := time.Now()
	var st service.JobStatus
	err := sv.call(http.MethodPost, "/v1/jobs", body, &st)
	var stages []stageMark
	if err == nil {
		stages, err = sv.follow(st.ID)
	}
	if err == nil {
		err = sv.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, &st)
	}
	d := time.Since(start)
	r.tr.End(js, "job", st.ID, "cache_hit", st.CacheHit)
	r.tr.End(op)
	if err != nil {
		return st, d, err
	}
	if st.Started != nil && st.Finished != nil {
		r.tr.Span("service.queue", trace, js, st.Created, *st.Started)
		run := r.tr.Span("service.run", trace, js, *st.Started, *st.Finished)
		for i, m := range stages {
			if i+1 < len(stages) {
				r.tr.Span("service.stage."+m.stage, trace, run, m.at, stages[i+1].at)
			}
		}
	}
	return st, d, nil
}

// stageMark is the receipt time of a stage change in a job's event
// stream; the terminal event closes the last stage with stage "".
type stageMark struct {
	stage string
	at    time.Time
}

// follow reads a job's NDJSON event stream until the server ends it.
func (sv *svc) follow(id string) ([]stageMark, error) {
	resp, err := sv.hc.Get(sv.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var marks []stageMark
	cur := ""
	dec := json.NewDecoder(resp.Body)
	for {
		var ev service.Event
		if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
			return marks, nil
		} else if err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		now := time.Now()
		switch {
		case ev.State != service.StateQueued && ev.State != service.StateRunning:
			if cur != "" {
				marks = append(marks, stageMark{"", now})
			}
			cur = ""
		case ev.Stage != "" && ev.Stage != cur:
			cur = ev.Stage
			marks = append(marks, stageMark{cur, now})
		}
	}
}

// call sends one request and decodes a 2xx JSON answer into out.
func (sv *svc) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, sv.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sv.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// Drain the trailing newline so the connection is reused.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// checkJobs sets each outcome's error from the correctness checks and
// counts the per-layer service numbers.
func (r *run) checkJobs(sv *svc, outs [][]outcome) {
	for _, jobs := range outs {
		cold := map[int]*outcome{}
		for i := range jobs {
			o := &jobs[i]
			if o.err == nil {
				o.err = r.checkJob(o, cold[o.req.circuit])
			}
			if o.req.kind == coldJob {
				cold[o.req.circuit] = o
			}
		}
	}
	// One cold job must match the one-shot flow run in process.
	for i := range outs[0] {
		o := &outs[0][i]
		if o.req.kind != coldJob || o.req.circuit != 0 || o.err != nil {
			continue
		}
		sp := r.tr.Begin("bench.check", o.trace, 0)
		o.err = r.reference(sv, o, sp)
		r.tr.End(sp)
		break
	}
}

func (r *run) checkJob(o, cold *outcome) error {
	st := o.status
	if st.State != service.StateDone || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res := st.Result
	r.add("service.jobs", 1)
	if st.CacheHit {
		r.add("service.cache_hits", 1)
	} else {
		// The wire form carries total pivots and no refactorizations.
		sv := res.Solver
		r.addSolver(lp.Stats{Phase2Pivots: sv.Pivots, CrashPivots: sv.CrashPivots, Nodes: sv.BnBNodes,
			WarmStarts: sv.WarmStarts, ColdStarts: sv.ColdStarts})
	}
	if e := res.ECO; o.req.kind == ecoJob && e != nil {
		r.add("service.eco_jobs", 1)
		if e.Incremental {
			r.add("service.eco_incremental", 1)
			r.addECO(e.Probes, e.RecoverySteps, e.ConeNodes, e.Spliced, false, false, e.Fallback)
		}
		if e.Fallback {
			r.add("service.eco_fallback", 1)
		}
	}
	if res.EquivOK == nil || !*res.EquivOK {
		return fmt.Errorf("job %s: equivalence check failed (%d mismatches)", st.ID, res.Mismatches)
	}
	switch o.req.kind {
	case repeatJob:
		if cold.err != nil {
			return fmt.Errorf("job %s: the job it repeats failed", st.ID)
		}
		if !st.CacheHit {
			return fmt.Errorf("job %s: repeat of %s missed the cache", st.ID, cold.status.ID)
		}
		if res.Netlist != cold.status.Result.Netlist {
			return fmt.Errorf("job %s: repeat of %s returned a different netlist", st.ID, cold.status.ID)
		}
		return nil
	case ecoJob:
		if res.ECO == nil || !res.ECO.Incremental {
			return fmt.Errorf("job %s: ECO on %s did not reuse its session", st.ID, cold.status.ID)
		}
	}
	r.qor(res.PeriodReductionPct, 100*res.Area/res.BaselineArea)
	return nil
}

// reference runs the service's cold pipeline in process on the same
// netlist and requires the job's netlist byte for byte.
func (r *run) reference(sv *svc, o *outcome, sp int) error {
	name := sv.names[o.req.circuit]
	c, err := netlist.Parse(strings.NewReader(renameNets(sv.texts[o.req.circuit], o.req.prefix)), name)
	if err != nil {
		return err
	}
	base, err := r.baseline(c, o.trace, sp)
	if err != nil {
		return err
	}
	sess, err := r.newSession(base, o.trace, sp)
	if err != nil {
		return err
	}
	res := sess.Result
	if err := r.verify(base, res.Circuit, res.BaselinePeriod, res.Period, warmup(res),
		stimulus(base, r.opts.Seed, 0, checkLanes), o.trace, sp); err != nil {
		return fmt.Errorf("in-process flow: %w", err)
	}
	text, err := benchText(res.Circuit)
	if err != nil {
		return err
	}
	if text != o.status.Result.Netlist {
		return fmt.Errorf("job %s: netlist differs from the in-process flow", o.status.ID)
	}
	return nil
}
