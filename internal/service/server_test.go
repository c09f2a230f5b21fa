package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"virtualsync/internal/sim"
)

// tinyBench is a minimal pipeline the full flow (baseline + period
// search) finishes in milliseconds, keeping the HTTP tests fast.
const tinyBench = `
INPUT(a)
INPUT(b)
f1 = DFF(a)
f2 = DFF(b)
g1 = NAND(f1, f2)
g2 = NOT(g1)
g3 = AND(g2, f1)
f3 = DFF(g3)
OUTPUT(f3)
`

func testConfig() Config {
	return Config{Workers: 2, QueueCap: 8, CacheEntries: 8, JobTimeout: time.Minute}
}

// newTestServer starts a Server over httptest; both are torn down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(context.Background(), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func submitJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, ts, body)
}

func postBody(t *testing.T, ts *httptest.Server, body []byte) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls a job until pred holds on its status.
func waitState(t *testing.T, ts *httptest.Server, id string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getJob(t, ts, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	return waitState(t, ts, id, func(st JobStatus) bool { return isTerminal(st.State) })
}

func TestSubmitRunsPipeline(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	st, code := submitJob(t, ts, JobRequest{Netlist: tinyBench, Name: "tiny"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	if st.ID == "" || st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("submit status = %+v", st)
	}
	st = waitTerminal(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	r := st.Result
	if r == nil || r.Netlist == "" {
		t.Fatal("done job carries no result netlist")
	}
	if r.Solver.Pivots <= 0 {
		t.Errorf("result reports %d solver pivots, want > 0", r.Solver.Pivots)
	}
	if r.BaselinePeriod <= 0 || r.Period <= 0 || r.Period > r.BaselinePeriod {
		t.Errorf("periods %v -> %v not an improvement", r.BaselinePeriod, r.Period)
	}
	if !strings.HasPrefix(r.Netlist, "# circuit tiny") {
		t.Errorf("result netlist not named after the request:\n%s",
			strings.SplitN(r.Netlist, "\n", 2)[0])
	}
	if st.Started == nil || st.Finished == nil {
		t.Error("terminal status missing started/finished timestamps")
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"netlist": `},
		{"unknown field", `{"netlist": "INPUT(a)", "nonsense": 1}`},
		{"empty netlist", `{"netlist": "  \n"}`},
		{"invalid netlist", `{"netlist": "g1 = FROB(x)\n"}`},
		{"undriven net", `{"netlist": "OUTPUT(z)\n"}`},
		{"invalid library", fmt.Sprintf(`{"netlist": %q, "library": "not a library"}`, tinyBench)},
		{"select_frac above 1", fmt.Sprintf(`{"netlist": %q, "params": {"select_frac": 1.5}}`, tinyBench)},
		{"body over the size cap", fmt.Sprintf(`{"netlist": %q}`, tinyBench+strings.Repeat("#\n", maxBody/2))},
	}
	for _, tc := range cases {
		if _, code := postBody(t, ts, []byte(tc.body)); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, code)
		}
	}
}

// TestSubmitBoundsVerification rejects equivalence checks above the
// lane-cycle budget before they allocate anything, and still admits the
// sizes the repository runs.
func TestSubmitBoundsVerification(t *testing.T) {
	if 48*sim.MaxLanes > maxVerifyLaneCycles {
		t.Fatalf("budget %d does not admit 48 cycles x %d lanes", maxVerifyLaneCycles, sim.MaxLanes)
	}
	_, ts := newTestServer(t, testConfig())
	body := fmt.Sprintf(`{"netlist": %q, "params": {"verify_cycles": 1000000000}}`, tinyBench)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized verification: HTTP %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(msg), fmt.Sprint(maxVerifyLaneCycles)) {
		t.Errorf("error does not name the limit: %s", msg)
	}

	st, code := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: Params{VerifyCycles: 48, VerifyLanes: 64}})
	if code != http.StatusAccepted {
		t.Fatalf("48 cycles x 64 lanes: HTTP %d, want 202", code)
	}
	if st = waitTerminal(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestJobTableForgetsOldestFinished: the server remembers at most
// jobEntries terminal jobs. One more finished job makes the oldest one
// answer 404, while a job still running survives however old it is.
func TestJobTableForgetsOldestFinished(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	gate := make(chan struct{})
	defer close(gate)
	srv.preRun = func(_ context.Context, j *job) {
		if j.circuit.Name == "held" {
			<-gate
		}
	}
	code := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	oldest, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Name: "first"})
	if st := waitTerminal(t, ts, oldest.ID); st.State != StateDone {
		t.Fatalf("first job ended %s: %s", st.State, st.Error)
	}
	held, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Name: "held", Params: Params{StepFrac: 0.01}})
	waitState(t, ts, held.ID, func(st JobStatus) bool { return st.State == StateRunning })

	// Cache hits are born finished: jobEntries of them push the first
	// job out and nothing else.
	var hits []string
	for i := 0; i < jobEntries; i++ {
		st, c := submitJob(t, ts, JobRequest{Netlist: tinyBench})
		if c != http.StatusOK || !st.CacheHit {
			t.Fatalf("resubmission %d: HTTP %d, cache hit %v; want 200 from the cache", i, c, st.CacheHit)
		}
		hits = append(hits, st.ID)
	}
	if c := code(oldest.ID); c != http.StatusNotFound {
		t.Errorf("oldest finished job: HTTP %d, want 404", c)
	}
	for _, id := range []string{hits[0], hits[len(hits)-1], held.ID} {
		if c := code(id); c != http.StatusOK {
			t.Errorf("job %s: HTTP %d, want 200", id, c)
		}
	}
	if st := getJob(t, ts, held.ID); st.State != StateRunning {
		t.Errorf("held job is %s, want running", st.State)
	}
	srv.mu.Lock()
	tracked := len(srv.jobs)
	srv.mu.Unlock()
	if tracked != jobEntries+1 {
		t.Errorf("tracking %d jobs, want %d", tracked, jobEntries+1)
	}
}

// TestCacheDeterminism: an identical resubmission — even reformatted and
// under another name — is served from the cache without running the
// pipeline again, and returns the identical result.
func TestCacheDeterminism(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	st1, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Name: "one"})
	st1 = waitTerminal(t, ts, st1.ID)
	if st1.State != StateDone {
		t.Fatalf("first job ended %s: %s", st1.State, st1.Error)
	}

	reformatted := "# resubmitted\n" + strings.ReplaceAll(tinyBench, "\n", "\n\n")
	st2, code := submitJob(t, ts, JobRequest{Netlist: reformatted, Name: "two"})
	if code != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200 (cache hit)", code)
	}
	if !st2.CacheHit || st2.State != StateDone || st2.Result == nil {
		t.Fatalf("resubmit not served from cache: %+v", st2)
	}
	if st2.Result.Netlist != st1.Result.Netlist {
		t.Error("cached result differs from the original run")
	}
	if got := srv.mExecuted.Value(); got != 1 {
		t.Errorf("pipeline executed %v times for identical submissions, want 1", got)
	}
	if got := srv.mCacheHits.Value(); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}

	// A semantically different submission must miss.
	st3, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: Params{StepFrac: 0.01}})
	if st3.CacheHit {
		t.Error("different params reported a cache hit")
	}
	waitTerminal(t, ts, st3.ID)
}

// TestDedupInflight: concurrent identical submissions attach to the
// in-flight primary; the pipeline runs exactly once for the group.
func TestDedupInflight(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, testConfig())
	srv.preRun = func(context.Context, *job) { <-gate }

	st1, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	waitState(t, ts, st1.ID, func(st JobStatus) bool { return st.State == StateRunning })
	st2, code := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	if code != http.StatusAccepted || !st2.Deduped {
		t.Fatalf("second identical submission: HTTP %d, deduped %v; want 202 deduplicated", code, st2.Deduped)
	}
	close(gate)

	st1 = waitTerminal(t, ts, st1.ID)
	st2 = waitTerminal(t, ts, st2.ID)
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("states %s/%s, want done/done", st1.State, st2.State)
	}
	if st1.Result.Netlist != st2.Result.Netlist {
		t.Error("deduplicated job got a different result than its primary")
	}
	if got := srv.mExecuted.Value(); got != 1 {
		t.Errorf("pipeline executed %v times for the group, want 1", got)
	}
}

// TestJobPanicIsolated: a pipeline panic fails its own job and the
// submissions deduplicated onto it, puts the stack in the job's event
// stream and counts it. A job running alongside it finishes with the
// bytes a clean server returns, and the server keeps serving.
func TestJobPanicIsolated(t *testing.T) {
	_, refTS := newTestServer(t, testConfig())
	ref, _ := submitJob(t, refTS, JobRequest{Netlist: tinyBench})
	want := doneResult(t, waitTerminal(t, refTS, ref.ID)).Netlist

	gate := make(chan struct{})
	srv, ts := newTestServer(t, testConfig())
	boom := Params{VerifyCycles: 7}
	srv.preRun = func(_ context.Context, j *job) {
		if j.params.VerifyCycles == boom.VerifyCycles {
			<-gate
			panic("injected pipeline fault")
		}
	}
	bad, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: boom})
	waitState(t, ts, bad.ID, func(st JobStatus) bool { return st.State == StateRunning })
	waiter, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: boom})
	good, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	close(gate)

	for _, id := range []string{bad.ID, waiter.ID} {
		st := waitTerminal(t, ts, id)
		if st.State != StateFailed || !strings.Contains(st.Error, "injected pipeline fault") {
			t.Fatalf("job %s: state %q error %q, want failed by the panic", id, st.State, st.Error)
		}
	}
	if got := doneResult(t, waitTerminal(t, ts, good.ID)).Netlist; got != want {
		t.Error("job running beside the panic returned different bytes than a clean server")
	}
	if v := srv.mPanicked.Value(); v != 1 {
		t.Errorf("jobs_panicked_total = %g, want 1", v)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + bad.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(events, []byte("goroutine ")) {
		t.Errorf("event stream carries no stack:\n%s", events)
	}

	// The server keeps serving after the panic.
	after, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: Params{VerifyCycles: 16}})
	doneResult(t, waitTerminal(t, ts, after.ID))
}

// TestJobDeadline: a job whose deadline expires finishes in the timeout
// state. The preRun hook parks the pipeline on ctx.Done() so the test is
// deterministic rather than racing a real optimization.
func TestJobDeadline(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	srv.preRun = func(ctx context.Context, _ *job) { <-ctx.Done() }
	st, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: Params{TimeoutMS: 50}})
	st = waitTerminal(t, ts, st.ID)
	if st.State != StateTimeout {
		t.Fatalf("job ended %s, want timeout", st.State)
	}
	if st.Result != nil {
		t.Error("timed-out job carries a result")
	}
}

// TestJobDeadlineCappedByServer: a job asking for more time than the
// server's JobTimeout still gets at most JobTimeout, so no client can pin
// a worker past the operator's limit.
func TestJobDeadlineCappedByServer(t *testing.T) {
	cfg := testConfig()
	cfg.JobTimeout = time.Second
	srv, ts := newTestServer(t, cfg)
	left := make(chan time.Duration, 1)
	srv.preRun = func(ctx context.Context, _ *job) {
		dl, ok := ctx.Deadline()
		if !ok {
			t.Error("job runs without a deadline")
		}
		left <- time.Until(dl)
	}
	st, code := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: Params{TimeoutMS: 10 * cfg.JobTimeout.Milliseconds()}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	if d := <-left; d > cfg.JobTimeout {
		t.Fatalf("job deadline %v away, want at most JobTimeout %v", d, cfg.JobTimeout)
	}
	waitTerminal(t, ts, st.ID)
}

func TestCancelRunningJob(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	srv.preRun = func(ctx context.Context, _ *job) { <-ctx.Done() }
	st, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	waitState(t, ts, st.ID, func(st JobStatus) bool { return st.State == StateRunning })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st = waitTerminal(t, ts, st.ID)
	if st.State != StateCanceled {
		t.Fatalf("job ended %s, want canceled", st.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	gate := make(chan struct{})
	srv, ts := newTestServer(t, cfg)
	srv.preRun = func(context.Context, *job) { <-gate }

	first, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	waitState(t, ts, first.ID, func(st JobStatus) bool { return st.State == StateRunning })
	// Distinct content so it is not deduplicated against the first.
	queued, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: Params{StepFrac: 0.01}})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCanceled {
		t.Fatalf("queued job state %s after cancel, want canceled immediately", st.State)
	}
	close(gate)
	if st := waitTerminal(t, ts, first.ID); st.State != StateDone {
		t.Fatalf("first job ended %s: %s", st.State, st.Error)
	}
	// The worker must have skipped the canceled job, not run it.
	if st := getJob(t, ts, queued.ID); st.State != StateCanceled {
		t.Fatalf("canceled job re-ran to %s", st.State)
	}
}

func TestQueueFull503(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueCap = 1
	gate := make(chan struct{})
	defer close(gate)
	srv, ts := newTestServer(t, cfg)
	srv.preRun = func(context.Context, *job) { <-gate }

	running, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	waitState(t, ts, running.ID, func(st JobStatus) bool { return st.State == StateRunning })
	if _, code := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: Params{StepFrac: 0.01}}); code != http.StatusAccepted {
		t.Fatalf("queued submission: HTTP %d, want 202", code)
	}
	if _, code := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: Params{StepFrac: 0.02}}); code != http.StatusServiceUnavailable {
		t.Fatalf("submission beyond capacity: HTTP %d, want 503", code)
	}
}

// TestEventsStream follows the NDJSON stream of a live job and checks it
// sees the queued → running → terminal progression with dense sequence
// numbers.
func TestEventsStream(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, testConfig())
	srv.preRun = func(context.Context, *job) { <-gate }

	st, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	close(gate)

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("streamed %d events, want at least queued/running/done", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (gap or reorder)", i, ev.Seq)
		}
	}
	if events[0].State != StateQueued {
		t.Errorf("first event state %q, want queued", events[0].State)
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Errorf("stream ended on state %q, want done", last.State)
	}
	solving := 0
	for _, ev := range events {
		if ev.Stage == StageSolving && ev.T > 0 {
			solving++
		}
	}
	if solving == 0 {
		t.Error("no solving progress events with a probed period")
	}
}

// TestEventsReplayAfterDone: connecting after completion still returns
// the whole history and closes.
func TestEventsReplayAfterDone(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	st, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	waitTerminal(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var n int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		n++
	}
	if n < 3 {
		t.Fatalf("replayed %d events, want full history", n)
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	a, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	waitTerminal(t, ts, a.ID)
	b, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench}) // cache hit
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 || out.Jobs[0].ID != a.ID || out.Jobs[1].ID != b.ID {
		t.Fatalf("listing = %+v, want [%s %s]", out.Jobs, a.ID, b.ID)
	}
	for _, j := range out.Jobs {
		if j.Result != nil {
			t.Error("listing includes full results; it should stay light")
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	st, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench})
	waitTerminal(t, ts, st.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		"vsync_jobs_submitted_total 1",
		`vsync_jobs_completed_total{state="done"} 1`,
		"vsync_jobs_executed_total 1",
		"vsync_cache_misses_total 1",
		"vsync_job_duration_seconds_count 1",
		"# TYPE vsync_queue_depth gauge",
		"# TYPE vsync_solver_pivots_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestConcurrentIdenticalSubmissions hammers one payload from many
// goroutines with no pre-warm: whatever interleaving happens, the
// pipeline runs exactly once and every job gets the same bytes.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(JobRequest{Netlist: tinyBench})
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	want := ""
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		st := waitTerminal(t, ts, id)
		if st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		if want == "" {
			want = st.Result.Netlist
		} else if st.Result.Netlist != want {
			t.Fatalf("job %s got different bytes than its peers", id)
		}
	}
	if got := srv.mExecuted.Value(); got != 1 {
		t.Errorf("pipeline executed %v times for %d identical submissions, want 1", got, n)
	}
}
