package service

import (
	"net/http"
	"strings"
	"testing"

	"virtualsync/internal/core"
)

// skipBase submits circuits as already-prepared so the session circuit
// is byte-identical to the submission, which keeps the ECO tests'
// node names stable.
var skipBase = Params{SkipBaseline: true}

func doneResult(t *testing.T, st JobStatus) *JobResult {
	t.Helper()
	if st.State != StateDone {
		t.Fatalf("job %s finished %q (error %q), want done", st.ID, st.State, st.Error)
	}
	if st.Result == nil {
		t.Fatalf("job %s done without result", st.ID)
	}
	return st.Result
}

func TestECOByBaseJob(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	base, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: skipBase})
	doneResult(t, waitTerminal(t, ts, base.ID))
	if n := srv.sessions.Len(); n != 1 {
		t.Fatalf("sessions after plain job = %d, want 1", n)
	}

	// Edit against the finished job's session: no netlist needed.
	eco, code := submitJob(t, ts, JobRequest{BaseJob: base.ID, Edits: "resize g1 2"})
	if code != http.StatusAccepted {
		t.Fatalf("eco submit: HTTP %d, want 202", code)
	}
	res := doneResult(t, waitTerminal(t, ts, eco.ID))
	if res.ECO == nil || !res.ECO.Incremental || res.ECO.Edits != 1 {
		t.Fatalf("eco info = %+v, want incremental with 1 edit", res.ECO)
	}
	if res.Netlist == "" || res.Period <= 0 {
		t.Fatalf("eco result incomplete: period %g", res.Period)
	}
	if v := srv.mECOIncremental.Value(); v != 1 {
		t.Errorf("eco_incremental_total = %g, want 1", v)
	}
	if n := srv.sessions.Len(); n != 1 {
		t.Fatalf("sessions after eco job = %d, want 1 (advanced session re-stored)", n)
	}

	// The advanced session chains: the next edit names the ECO job.
	chain, _ := submitJob(t, ts, JobRequest{BaseJob: eco.ID, Edits: "resize g1 0\nresize g2 1"})
	res2 := doneResult(t, waitTerminal(t, ts, chain.ID))
	if res2.ECO == nil || !res2.ECO.Incremental || res2.ECO.Edits != 2 {
		t.Fatalf("chained eco info = %+v", res2.ECO)
	}

	// The base job's session was consumed by the first ECO.
	gone, _ := submitJob(t, ts, JobRequest{BaseJob: base.ID, Edits: "resize g1 1"})
	st := waitTerminal(t, ts, gone.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "no live optimization session") {
		t.Fatalf("stale base_job: state %q error %q", st.State, st.Error)
	}
}

func TestECOByNetlistKey(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	base, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: skipBase})
	doneResult(t, waitTerminal(t, ts, base.ID))

	// Same netlist plus an edit list: the session resolves through the
	// submission's content key, no job ID required.
	eco, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Edits: "resize g2 2", Params: skipBase})
	res := doneResult(t, waitTerminal(t, ts, eco.ID))
	if res.ECO == nil || !res.ECO.Incremental {
		t.Fatalf("eco info = %+v, want incremental", res.ECO)
	}
	if v := srv.mECOCold.Value(); v != 0 {
		t.Errorf("eco_cold_total = %g, want 0", v)
	}
}

func TestECOColdWithoutSession(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	// No prior job: the edits apply to the submitted netlist and the
	// pipeline runs cold, but a session is still created for later edits.
	eco, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Edits: "resize g1 1", Params: skipBase})
	res := doneResult(t, waitTerminal(t, ts, eco.ID))
	if res.ECO == nil || res.ECO.Incremental {
		t.Fatalf("eco info = %+v, want cold (non-incremental)", res.ECO)
	}
	if v := srv.mECOCold.Value(); v != 1 {
		t.Errorf("eco_cold_total = %g, want 1", v)
	}
	follow, _ := submitJob(t, ts, JobRequest{BaseJob: eco.ID, Edits: "resize g1 0"})
	res2 := doneResult(t, waitTerminal(t, ts, follow.ID))
	if res2.ECO == nil || !res2.ECO.Incremental {
		t.Fatalf("follow-up eco info = %+v, want incremental", res2.ECO)
	}
}

func TestECORejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"bad edit syntax", JobRequest{Netlist: tinyBench, Edits: "frobnicate g1"}},
		{"base_job without edits", JobRequest{BaseJob: "j1"}},
		{"no netlist and no base_job", JobRequest{Edits: "resize g1 0"}},
	}
	for _, tc := range cases {
		if _, code := submitJob(t, ts, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, code)
		}
	}

	// Edits naming a node the base circuit lacks fail at run time.
	base, _ := submitJob(t, ts, JobRequest{Netlist: tinyBench, Params: skipBase})
	doneResult(t, waitTerminal(t, ts, base.ID))
	eco, _ := submitJob(t, ts, JobRequest{BaseJob: base.ID, Edits: "resize nosuch 0"})
	st := waitTerminal(t, ts, eco.ID)
	if st.State != StateFailed {
		t.Fatalf("unknown node edit: state %q, want failed", st.State)
	}
}

func TestSessionStoreLRU(t *testing.T) {
	st := newSessionStore(2)
	put := func(id, key string) {
		st.Put(sessionMeta{JobID: id, Key: key}, &core.Session{})
	}
	put("j1", "k1")
	put("j2", "k2")
	put("j3", "k3") // evicts j1
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if _, _, ok := st.TakeByJob("j1"); ok {
		t.Fatal("j1 survived eviction")
	}
	if _, _, ok := st.TakeByKey("k1"); ok {
		t.Fatal("k1 survived eviction")
	}
	sess, meta, ok := st.TakeByJob("j2")
	if !ok || sess == nil || meta.Key != "k2" {
		t.Fatalf("TakeByJob(j2) = %+v ok=%v", meta, ok)
	}
	// Take removes: the same session cannot be taken twice.
	if _, _, ok := st.TakeByKey("k2"); ok {
		t.Fatal("j2 still stored after Take")
	}
	st.Put(meta, sess) // returned unchanged
	if _, _, ok := st.TakeByKey("k2"); !ok {
		t.Fatal("re-Put session not indexed by key")
	}
}
