package core

import (
	"context"
	"reflect"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sim"
	"virtualsync/internal/sta"
)

// regionsEqual requires two regions over timing-equivalent circuits to
// be structurally and numerically identical (working circuits aside).
func regionsEqual(t *testing.T, want, got *Region) {
	t.Helper()
	if !reflect.DeepEqual(want.Gates, got.Gates) {
		t.Errorf("Gates differ: %v vs %v", want.Gates, got.Gates)
	}
	if !reflect.DeepEqual(want.GateIdx, got.GateIdx) {
		t.Errorf("GateIdx differ")
	}
	if !reflect.DeepEqual(want.Sources, got.Sources) {
		t.Errorf("Sources differ: %+v vs %+v", want.Sources, got.Sources)
	}
	if !reflect.DeepEqual(want.Sinks, got.Sinks) {
		t.Errorf("Sinks differ: %+v vs %+v", want.Sinks, got.Sinks)
	}
	if !reflect.DeepEqual(want.Edges, got.Edges) {
		t.Errorf("Edges differ")
	}
	if !reflect.DeepEqual(want.sched, got.sched) {
		t.Errorf("validator schedules differ")
	}
	if !reflect.DeepEqual(want.Removed, got.Removed) {
		t.Errorf("Removed differ: %v vs %v", want.Removed, got.Removed)
	}
	if want.ExternalPeriod != got.ExternalPeriod {
		t.Errorf("ExternalPeriod: %v vs %v", want.ExternalPeriod, got.ExternalPeriod)
	}
	if !reflect.DeepEqual(want.Baseline.MaxArrival, got.Baseline.MaxArrival) ||
		!reflect.DeepEqual(want.Baseline.MinArrival, got.Baseline.MinArrival) ||
		want.Baseline.MinPeriod != got.Baseline.MinPeriod {
		t.Errorf("Baseline analysis differs")
	}
}

// TestSpliceRegionMatchesColdExtract pins the splice path to the cold
// one: after a non-structural edit that keeps the removal selection, the
// spliced region must be identical to a fresh Extract of the edited
// circuit, with the baseline analysis coming from incremental STA.
func TestSpliceRegionMatchesColdExtract(t *testing.T) {
	lib := celllib.Default()
	spec, _ := gen.SpecByName("systemcdes")
	c, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	prevRegion, err := Extract(c, lib, ExtractOptions{SelectFrac: DefaultOptions().SelectFrac})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sta.Analyze(c, lib)
	if err != nil {
		t.Fatal(err)
	}

	// Speed up one gate that has headroom; a pure delay change keeps the
	// structure and, with high likelihood, the selection.
	var edit *netlist.Edit
	c.Live(func(nd *netlist.Node) {
		if edit != nil || !nd.Kind.IsCombinational() {
			return
		}
		if d, _, _, ok := lib.FasterDrive(nd); ok {
			edit = &netlist.Edit{Op: netlist.EditResize, Node: nd.Name, Drive: d}
		}
	})
	if edit == nil {
		t.Skip("no resizable gate")
	}
	work := c.Clone()
	er, err := work.ApplyEdits([]netlist.Edit{*edit})
	if err != nil {
		t.Fatal(err)
	}
	newBase, _, err := sta.AnalyzeIncremental(work, lib, base, er.Touched)
	if err != nil {
		t.Fatal(err)
	}
	removed := selectRemovable(work, lib, newBase, DefaultOptions().SelectFrac)
	if !sameIDs(removed, prevRegion.Removed) {
		t.Skipf("edit changed the removal selection (%d vs %d flip-flops)", len(removed), len(prevRegion.Removed))
	}

	cold, err := Extract(work, lib, ExtractOptions{SelectFrac: DefaultOptions().SelectFrac})
	if err != nil {
		t.Fatal(err)
	}
	spliced := spliceRegion(prevRegion, work, lib, newBase)
	regionsEqual(t, cold, spliced)
}

// TestReoptimizeHoldsPeriod runs an ECO that only relaxes a non-critical
// gate: the held period must stay feasible on the incremental path, and
// the re-optimized circuit must stay cycle-accurate against the edited
// baseline.
func TestReoptimizeHoldsPeriod(t *testing.T) {
	lib := paperLib(t)
	c := wavePipe(t)
	s, err := NewSession(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := s.Result.Period

	// g5 is far off the critical path: W2 -> W3 keeps all timing intact.
	res, st, err := s.Reoptimize(context.Background(), []netlist.Edit{
		{Op: netlist.EditSwapCell, Node: "g5", Cell: "W3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fallback {
		t.Error("non-critical edit should not fall back to the cold search")
	}
	if st.RecoverySteps != 0 {
		t.Errorf("non-critical edit needed %d recovery steps", st.RecoverySteps)
	}
	if !st.PlanTransferred {
		t.Error("plan should transfer across a non-structural edit")
	}
	if res.Period > held+1e-9 {
		t.Errorf("period %.3f regressed past held %.3f", res.Period, held)
	}
	if err := res.Circuit.Validate(); err != nil {
		t.Fatalf("re-optimized netlist invalid: %v", err)
	}
	ms, err := sim.VerifyEquivalenceStim(s.Circuit, res.Circuit, lib, res.BaselinePeriod, res.Period,
		8, sim.RandomStimulus(s.Circuit, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) > 0 {
		t.Fatalf("ECO result functionally diverges: %v", ms[0])
	}

	// The session advanced: a second ECO chains from the first.
	if s.Result != res {
		t.Error("session did not advance to the new result")
	}
	res2, st2, err := s.Reoptimize(context.Background(), []netlist.Edit{
		{Op: netlist.EditSwapCell, Node: "g5", Cell: "W2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2 == nil || st2.Fallback {
		t.Errorf("chained ECO failed: %+v", st2)
	}
}

// wavePipeExt is wavePipe plus an independent register-to-register path
// (in2 -> F4 -> h1 -> F5 -> out2) that stays outside the extracted
// region: its 5-delay path is far below the selection threshold. An ECO
// that slows h1 raises the external-period requirement, which the
// VirtualSync region cannot absorb.
func wavePipeExt(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := wavePipe(t)
	in2 := c.MustAdd("in2", netlist.KindInput)
	f4 := c.MustAdd("F4", netlist.KindDFF, in2.ID)
	h1 := c.MustAdd("h1", netlist.KindBuf, f4.ID)
	h1.Cell = "W1"
	f5 := c.MustAdd("F5", netlist.KindDFF, h1.ID)
	c.MustAdd("out2", netlist.KindOutput, f5.ID)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReoptimizeRecoversUpward slows logic outside the region until the
// held period is infeasible; Reoptimize must back the target off in
// growing steps and return a feasible solution without a cold fallback.
func TestReoptimizeRecoversUpward(t *testing.T) {
	lib := paperLib(t)
	c := wavePipeExt(t)
	s, err := NewSession(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := s.Result.Period
	// h1: W1 -> W9 pushes the external F4->F5 path to 3+9+1 = 13, above
	// the held period; the region itself is untouched.
	res, st, err := s.Reoptimize(context.Background(), []netlist.Edit{
		{Op: netlist.EditSwapCell, Node: "h1", Cell: "W9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Period <= held {
		t.Errorf("external slowdown kept period %.3f <= held %.3f", res.Period, held)
	}
	if st.RecoverySteps == 0 {
		t.Errorf("external slowdown should climb the recovery ladder: %+v", st)
	}
	if st.Fallback {
		t.Error("recovery should succeed incrementally, not via cold search")
	}
	ru := DefaultOptions().Ru
	if res.Period < 13*ru-1e-9 {
		t.Errorf("recovered period %.3f below the external requirement %.3f", res.Period, 13*ru)
	}
	if res.Period > res.BaselinePeriod*(1+0.02)+1e-9 {
		t.Errorf("recovered period %.3f above baseline cap %.3f", res.Period, res.BaselinePeriod)
	}
	ms, err := sim.VerifyEquivalenceStim(s.Circuit, res.Circuit, lib, res.BaselinePeriod, res.Period,
		8, sim.RandomStimulus(s.Circuit, 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) > 0 {
		t.Fatalf("recovered ECO result diverges: %v", ms[0])
	}
}

// TestReoptimizeStructuralEdit exercises the rebuild path: a flip-flop
// insertion changes the region structure, so the session must re-extract
// rather than splice, and the result must stay functionally equivalent.
func TestReoptimizeStructuralEdit(t *testing.T) {
	lib := paperLib(t)
	c := wavePipe(t)
	s, err := NewSession(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := s.Reoptimize(context.Background(), []netlist.Edit{
		{Op: netlist.EditInsertFF, Name: "eco_ff", Node: "g4", Pin: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spliced {
		t.Error("structural edit must not splice the previous region")
	}
	if res == nil || res.Circuit == nil {
		t.Fatal("structural ECO returned no result")
	}
	if err := res.Circuit.Validate(); err != nil {
		t.Fatalf("re-optimized netlist invalid: %v", err)
	}
}

func TestReoptimizeRejectsBadEdits(t *testing.T) {
	lib := paperLib(t)
	c := wavePipe(t)
	s, err := NewSession(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Result
	if _, _, err := s.Reoptimize(context.Background(), []netlist.Edit{
		{Op: netlist.EditResize, Node: "no_such_node", Drive: 1},
	}); err == nil {
		t.Error("unknown node should fail")
	}
	if s.Result != before {
		t.Error("failed ECO must not advance the session")
	}
}

// TestTransferPlanIdentity covers the edge-remap rules: identical
// structure carries units, the legalized set and the basis; a reordered
// or partial structure carries what matches and drops the basis.
func TestTransferPlanIdentity(t *testing.T) {
	lib := paperLib(t)
	c := wavePipe(t)
	r, err := Extract(c, lib, ExtractOptions{SelectFrac: DefaultOptions().SelectFrac})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizeRegion(context.Background(), r, 12, DefaultOptions(), nil)
	if err != nil || plan == nil {
		t.Fatalf("no plan at T=12: %v", err)
	}
	same := transferPlan(r, r, plan)
	if !reflect.DeepEqual(same.Unit, plan.Unit) {
		t.Error("identity transfer changed unit placements")
	}
	if same.Basis != plan.Basis {
		t.Error("identity transfer dropped the basis")
	}

	// A region with one edge missing: partial match, no basis.
	trunc := &Region{Edges: append([]Edge(nil), r.Edges[:len(r.Edges)-1]...)}
	part := transferPlan(trunc, r, plan)
	if part.Basis != nil {
		t.Error("partial transfer must drop the basis")
	}
	for i := range trunc.Edges {
		if part.Unit[i] != plan.Unit[i] {
			t.Errorf("edge %d unit not carried", i)
		}
	}
}
