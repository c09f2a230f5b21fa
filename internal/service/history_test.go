package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"virtualsync"
	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sta"
)

// TestSkipBaselineHistoryIndependent: a submission's result depends on
// the submission alone, never on what the server served before. A
// one-gate resize of a small generated circuit, submitted with
// skip_baseline, must come back with the same netlist bytes from a
// fresh server and from one that has already optimized the unedited
// netlist.
func TestSkipBaselineHistoryIndependent(t *testing.T) {
	c := gen.MustGenerate(gen.Spec{Name: "hist", Seed: 11, TargetGates: 60, TargetFFs: 8,
		Stage1Depth: 6, Stage2Depth: 4, StageWidth: 2, FastBypass: true, WallFrac: 0.9, NumInputs: 4})
	st, err := sta.Analyze(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Upsize the first gate of the critical path: the edit moves the
	// circuit's timing, so a result carried over from the unedited
	// circuit would show.
	var gate *netlist.Node
	for _, id := range st.CriticalPath {
		if n := c.Nodes[id]; n.Kind.IsCombinational() {
			gate = n
			break
		}
	}
	if gate == nil {
		t.Fatal("critical path has no gate")
	}
	edited := c.Clone()
	edits := []netlist.Edit{{Op: netlist.EditResize, Node: gate.Name, Drive: gate.Drive + 1}}
	if _, err := edited.ApplyEdits(edits); err != nil {
		t.Fatalf("resize %s: %v", gate.Name, err)
	}
	text := func(c *netlist.Circuit) string {
		var b bytes.Buffer
		if err := netlist.Write(&b, c); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	submit := func(ts *httptest.Server, body string) string {
		t.Helper()
		st, _ := submitJob(t, ts, JobRequest{Netlist: body, Name: "hist", Params: skipBase})
		return doneResult(t, waitTerminal(t, ts, st.ID)).Netlist
	}

	_, fresh := newTestServer(t, testConfig())
	want := submit(fresh, text(edited))

	_, warm := newTestServer(t, testConfig())
	submit(warm, text(c))
	got := submit(warm, text(edited))
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("resize of %s: result depends on the server's history; line %d is\n  %s\nafter the unedited netlist, but\n  %s\non a fresh server",
				gate.Name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("resize of %s: result depends on the server's history (%d vs %d lines)", gate.Name, len(gl), len(wl))
	}
}

// TestResultMatchesOneShot: a job served by the daemon, baseline
// included, returns the netlist bytes the one-shot vsync flow writes
// for the same input and name (retiming&sizing baseline, period search,
// WriteCircuit).
func TestResultMatchesOneShot(t *testing.T) {
	c := gen.MustGenerate(gen.Spec{Name: "oneshot", Seed: 5, TargetGates: 60, TargetFFs: 8,
		Stage1Depth: 6, Stage2Depth: 4, StageWidth: 2, FastBypass: true, WallFrac: 0.9, NumInputs: 4})
	var text bytes.Buffer
	if err := netlist.Write(&text, c); err != nil {
		t.Fatal(err)
	}

	in, err := virtualsync.LoadCircuit(strings.NewReader(text.String()), "oneshot")
	if err != nil {
		t.Fatal(err)
	}
	lib := virtualsync.DefaultLibrary()
	b, err := virtualsync.RetimeAndSize(in, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := virtualsync.OptimizeCtx(context.Background(), b.Circuit, lib, virtualsync.DefaultOptions(), 0.005)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := virtualsync.WriteCircuit(&want, res.Circuit); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, testConfig())
	st, _ := submitJob(t, ts, JobRequest{Netlist: text.String(), Name: "oneshot"})
	r := doneResult(t, waitTerminal(t, ts, st.ID))
	if r.Period >= r.BaselinePeriod {
		t.Fatalf("service did not improve the period (%v -> %v); pick a circuit the flow can optimize",
			r.BaselinePeriod, r.Period)
	}
	if r.Netlist != want.String() {
		t.Fatalf("service result differs from the one-shot flow (%d vs %d bytes)\n--- service ---\n%s\n--- one-shot ---\n%s",
			len(r.Netlist), want.Len(), r.Netlist, want.String())
	}
}
