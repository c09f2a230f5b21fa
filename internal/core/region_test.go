package core

import (
	"testing"

	"virtualsync/internal/netlist"
)

func TestExtractWavePipe(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	r, err := Extract(c, lib, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.MinPeriod != 21 {
		t.Fatalf("baseline period = %g, want 21", r.Baseline.MinPeriod)
	}
	// F1 and F2 lie on the 21-delay path; F3 does not.
	removed := map[string]bool{}
	for _, id := range r.Removed {
		removed[r.Work.Node(id).Name] = true
	}
	if !removed["F1"] || !removed["F2"] || removed["F3"] {
		t.Fatalf("removed = %v, want F1+F2 only", removed)
	}
	// All five gates belong to the region.
	if len(r.Gates) != 5 {
		t.Fatalf("region gates = %d, want 5", len(r.Gates))
	}
	// Sources: the primary input (F1 is removed). Sinks: F3.
	if len(r.Sources) != 1 || r.Sources[0].IsFF {
		t.Fatalf("sources = %+v, want just the PI", r.Sources)
	}
	if len(r.Sinks) != 1 || !r.Sinks[0].IsFF {
		t.Fatalf("sinks = %+v, want just F3", r.Sinks)
	}
	// Edge anchors: g1's input crosses removed F1 (lambda 1), g4's first
	// input crosses removed F2 (lambda 1), all others lambda 0.
	lambdaByDst := map[string]int{}
	for _, e := range r.Edges {
		name := r.Work.Node(e.DstNode).Name
		lambdaByDst[name] += e.Lambda
	}
	if lambdaByDst["g1"] != 1 || lambdaByDst["g4"] != 1 || lambdaByDst["g5"] != 1 {
		t.Fatalf("lambda by dst = %v", lambdaByDst)
	}
	if lambdaByDst["g2"] != 0 || lambdaByDst["g3"] != 0 || lambdaByDst["F3"] != 0 {
		t.Fatalf("lambda by dst = %v", lambdaByDst)
	}
	st := r.Stats()
	if st.SelectedFFs != 2 || st.RegionGates != 5 || st.Edges != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExtractLoop(t *testing.T) {
	c := loopCircuit(t)
	lib := paperLib(t)
	r, err := Extract(c, lib, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Critical: F1->g1->F2 and F2->g1->F2, both 3+9+1=13.
	if r.Baseline.MinPeriod != 13 {
		t.Fatalf("baseline = %g, want 13", r.Baseline.MinPeriod)
	}
	removed := map[string]bool{}
	for _, id := range r.Removed {
		removed[r.Work.Node(id).Name] = true
	}
	if !removed["F1"] || !removed["F2"] {
		t.Fatalf("removed = %v, want F1 and F2", removed)
	}
	// The g1->g1 self edge through removed F2 must carry lambda 1.
	selfLambda := -1
	for _, e := range r.Edges {
		if e.From.Kind == RefGate && e.To.Kind == RefGate &&
			r.Gates[e.From.Idx] == r.Gates[e.To.Idx] {
			selfLambda = e.Lambda
		}
	}
	if selfLambda != 1 {
		t.Fatalf("self-loop lambda = %d, want 1", selfLambda)
	}
}

func TestExtractSelectFracOne(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	r, err := Extract(c, lib, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the exact critical path's endpoints selected.
	if len(r.Removed) != 2 {
		t.Fatalf("removed = %d FFs, want 2", len(r.Removed))
	}
}

func TestExtractRejectsBadFrac(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	if _, err := Extract(c, lib, 0); err == nil {
		t.Fatal("SelectFrac 0 accepted")
	}
	if _, err := Extract(c, lib, 1.5); err == nil {
		t.Fatal("SelectFrac 1.5 accepted")
	}
}

func TestExtractRejectsLatchCircuit(t *testing.T) {
	lib := paperLib(t)
	c := netlist.New("lt")
	in := c.MustAdd("in", netlist.KindInput)
	c.MustAdd("l1", netlist.KindLatch, in.ID)
	if _, err := Extract(c, lib, 0.95); err == nil {
		t.Fatal("latch circuit accepted")
	}
}

func TestExtractFFChain(t *testing.T) {
	// A selected flip-flop inside an FF chain produces a source->sink edge
	// with lambda crossing it (gate-less wave path).
	lib := paperLib(t)
	c := netlist.New("chain")
	in := c.MustAdd("in", netlist.KindInput)
	f0 := c.MustAdd("F0", netlist.KindDFF, in.ID)
	g1 := c.MustAdd("g1", netlist.KindBuf, f0.ID)
	g1.Cell = "W9"
	f1 := c.MustAdd("F1", netlist.KindDFF, g1.ID)
	f2 := c.MustAdd("F2", netlist.KindDFF, f1.ID) // shift register tail
	c.MustAdd("out", netlist.KindOutput, f2.ID)
	r, err := Extract(c, lib, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Critical: F0 -> g1 -> F1 (13). F0 and F1 are selected.
	removed := map[string]bool{}
	for _, id := range r.Removed {
		removed[r.Work.Node(id).Name] = true
	}
	if !removed["F0"] || !removed["F1"] || removed["F2"] {
		t.Fatalf("removed = %v", removed)
	}
	// F2 must be a sink fed through removed F1 (lambda 1, from g1).
	foundSink := false
	for _, e := range r.Edges {
		if e.To.Kind == RefSink && r.Work.Node(r.Sinks[e.To.Idx].Node).Name == "F2" {
			foundSink = true
			if e.Lambda != 1 {
				t.Fatalf("F2 sink lambda = %d, want 1", e.Lambda)
			}
		}
	}
	if !foundSink {
		t.Fatal("F2 not recorded as sink")
	}
}
