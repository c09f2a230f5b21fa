package core

import (
	"context"
	"testing"

	"virtualsync/internal/netlist"
	"virtualsync/internal/sim"
)

// fig3Circuit mirrors the paper's Fig. 3 structure: a four-stage register
// pipeline whose first two flip-flops (F1, F2) sit on the critical path
// and are removed, while F3 stays in the optimized circuit and F4 is the
// boundary capture.
//
//	in -> F1 -> u(5+6=11) -> F2 -> w(3) -> F3 -> t(2) -> F4 -> out
//
// With tcq=3, tsu=th=1 the classic minimum period is 15 (stage F1->F2);
// the paper discusses the anchor arithmetic at T=10.
func fig3Circuit(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := netlist.New("fig3")
	in := c.MustAdd("in", netlist.KindInput)
	f1 := c.MustAdd("F1", netlist.KindDFF, in.ID)
	u1 := c.MustAdd("u1", netlist.KindBuf, f1.ID)
	u1.Cell = "W5"
	u2 := c.MustAdd("u2", netlist.KindBuf, u1.ID)
	u2.Cell = "W6"
	f2 := c.MustAdd("F2", netlist.KindDFF, u2.ID)
	w := c.MustAdd("w", netlist.KindBuf, f2.ID)
	w.Cell = "W3"
	f3 := c.MustAdd("F3", netlist.KindDFF, w.ID)
	tg := c.MustAdd("t", netlist.KindBuf, f3.ID)
	tg.Cell = "W2"
	f4 := c.MustAdd("F4", netlist.KindDFF, tg.ID)
	c.MustAdd("out", netlist.KindOutput, f4.ID)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFig3AnchorExtraction(t *testing.T) {
	c := fig3Circuit(t)
	lib := paperLib(t)
	r, err := Extract(c, lib, ExtractOptions{SelectFrac: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.MinPeriod != 15 {
		t.Fatalf("baseline = %g, want 15", r.Baseline.MinPeriod)
	}
	removed := map[string]bool{}
	for _, id := range r.Removed {
		removed[r.Work.Node(id).Name] = true
	}
	// F1 and F2 are the source/sink of the critical path; F3 and F4 stay
	// as the paper's boundary (F3 is kept in the optimized circuit).
	if !removed["F1"] || !removed["F2"] || removed["F3"] || removed["F4"] {
		t.Fatalf("removed = %v, want exactly F1+F2", removed)
	}
	// Anchors sit where the removed flip-flops were: F1's on u1's input
	// edge, F2's on w's input edge; the sink edge w->F3 crosses none.
	var intoU1, intoW, intoSink int = -1, -1, -1
	for _, e := range r.Edges {
		switch {
		case r.Work.Node(e.DstNode).Name == "u1":
			intoU1 = e.Lambda
		case r.Work.Node(e.DstNode).Name == "w":
			intoW = e.Lambda
		case e.To.Kind == RefSink && r.Work.Node(r.Sinks[e.To.Idx].Node).Name == "F3":
			intoSink = e.Lambda
		}
	}
	if intoU1 != 1 || intoW != 1 || intoSink != 0 {
		t.Fatalf("lambda u1=%d w=%d sinkF3=%d, want 1, 1, 0", intoU1, intoW, intoSink)
	}
}

// TestFig3AnchorArithmetic checks the paper's worked example: at T=10 the
// removed stages force the wave to be re-referenced once per anchor, and
// the kept flip-flop F3 re-synchronizes the signal so F4's constraints
// hold. The realized plan must validate and the optimized circuit must be
// cycle-exact with the original.
func TestFig3AnchorArithmetic(t *testing.T) {
	c := fig3Circuit(t)
	lib := paperLib(t)
	res, err := OptimizeAtPeriod(context.Background(), c, lib, 10, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("T=10 should be feasible (paper Fig. 3 operates at T=10)")
	}
	if res.Circuit.ByName("F1") != nil || res.Circuit.ByName("F2") != nil {
		t.Fatal("F1/F2 should be removed")
	}
	if res.Circuit.ByName("F3") == nil || res.Circuit.ByName("F4") == nil {
		t.Fatal("boundary flip-flops F3/F4 must remain")
	}
	// The wave into F3 carries data launched two cycles earlier (one
	// anchor at F1, one at F2): verify via the validator's propagation
	// that the sink arrival obeys (1)-(2) after two -T shifts.
	st, vs := res.Plan.propagate(res.Plan.env(ValidateParams{}))
	if st == nil || len(vs) > 0 {
		t.Fatalf("propagate failed: %v", vs)
	}
	for ei, e := range res.Plan.R.Edges {
		if e.To.Kind != RefSink {
			continue
		}
		name := res.Plan.R.Work.Node(res.Plan.R.Sinks[e.To.Idx].Node).Name
		tsu, th := res.Plan.R.sinkTimings(e.To.Idx)
		if st.oLate[ei]+tsu*res.Plan.Opts.Ru > 10+valTol {
			t.Errorf("sink %s setup violated: %g", name, st.oLate[ei])
		}
		if st.oEarly[ei] < th*res.Plan.Opts.Ru-valTol {
			t.Errorf("sink %s hold violated: %g", name, st.oEarly[ei])
		}
	}
	ms, err := sim.VerifyEquivalenceStim(c, res.Circuit, lib, res.BaselinePeriod, 10,
		6, sim.RandomStimulus(c, 50, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("Fig. 3 functional mismatch: %v", ms[0])
	}
}
