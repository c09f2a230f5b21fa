package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
)

// TestProbeSequenceGolden pins the period search's probe sequence on
// s5378, mem_ctrl and the feedback accumulator in testdata/feedback.bench
// (first taken from Example_feedback; the one known input whose phase-3
// solves are infeasible) at DefaultStepFrac: the stage, the period
// (%.4f) and the feasibility of every ProgressEvent, in order. A change to the
// coarse and refine loops that moves a single probe fails here even when
// the final period happens to hold. On a mismatch the test prints the
// whole sequence it got, from which an intended change rewrites
// testdata/probe_sequence.golden.
func TestProbeSequenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three period searches")
	}
	lib := celllib.Default()
	var b strings.Builder
	for _, name := range []string{"s5378", "mem_ctrl", "feedback"} {
		var base *netlist.Circuit
		if name == "feedback" {
			base = feedbackBaseline(t, lib)
		} else {
			base = suiteBaseline(t, name, lib)
		}
		_, err := OptimizeObserved(context.Background(), base, lib, DefaultOptions(), DefaultStepFrac,
			func(ev ProgressEvent) {
				fmt.Fprintf(&b, "%s %s %.4f %v\n", name, ev.Stage, ev.T, ev.Feasible)
			})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "probe_sequence.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Errorf("%s line %d: got %q, want %q", path, i+1, gl[i], wl[i])
				break
			}
		}
		t.Fatalf("probe sequence differs from %s (got %d lines, want %d); got:\n%s", path, len(gl), len(wl), got)
	}
}

// feedbackBaseline parses testdata/feedback.bench, the golden's own
// accumulator input, and returns its retiming&sizing baseline.
func feedbackBaseline(t *testing.T, lib *celllib.Library) *netlist.Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "feedback.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := netlist.Parse(f, "feedback")
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := retime.Baseline(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return base
}
