package service

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

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
