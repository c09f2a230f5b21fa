package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"virtualsync/internal/netlist"
	"virtualsync/internal/sim"
)

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
	// The rebuilt region must list its edges in the previous positional
	// order, or the warm simplex basis cannot carry.
	if !st.BasisTransferred {
		t.Error("basis should carry across a non-structural edit")
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

// TestReoptimizeStructuralEdit exercises a structural edit: a flip-flop
// insertion changes the region structure, and the re-optimized netlist
// must stay valid.
func TestReoptimizeStructuralEdit(t *testing.T) {
	lib := paperLib(t)
	c := wavePipe(t)
	s, err := NewSession(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Reoptimize(context.Background(), []netlist.Edit{
		{Op: netlist.EditInsertFF, Name: "eco_ff", Node: "g4", Pin: 1},
	})
	if err != nil {
		t.Fatal(err)
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
	cases := []struct {
		name string
		edit netlist.Edit
		want string // substring of the error, "" for any
	}{
		{"unknown node", netlist.Edit{Op: netlist.EditResize, Node: "no_such_node", Drive: 1}, ""},
		// g1 -> g2 -> g3 -> g1: a combinational loop no flip-flop cuts.
		{"combinational loop", netlist.Edit{Op: netlist.EditRewire, Node: "g1", Pin: 0, Driver: "g3"},
			"edits create a combinational loop"},
	}
	for _, tc := range cases {
		_, _, err := s.Reoptimize(context.Background(), []netlist.Edit{tc.edit})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want failure containing %q", tc.name, err, tc.want)
		}
		if s.Result != before {
			t.Errorf("%s: failed ECO must not advance the session", tc.name)
		}
	}
}

// TestTransferPlanIdentity covers the edge-remap rules: identical
// structure carries units and the basis; a reordered or partial
// structure carries what matches and drops the basis.
func TestTransferPlanIdentity(t *testing.T) {
	lib := paperLib(t)
	c := wavePipe(t)
	r, err := Extract(c, lib, DefaultOptions().SelectFrac)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizeRegion(context.Background(), r, 12, DefaultOptions(), nil)
	if err != nil || plan == nil {
		t.Fatalf("no plan at T=12: %v", err)
	}
	same := transferPlan(r, plan)
	if !reflect.DeepEqual(same.Unit, plan.Unit) {
		t.Error("identity transfer changed unit placements")
	}
	if same.Basis != plan.Basis {
		t.Error("identity transfer dropped the basis")
	}

	// A region with one edge missing: partial match, no basis.
	trunc := &Region{Edges: append([]Edge(nil), r.Edges[:len(r.Edges)-1]...)}
	part := transferPlan(trunc, plan)
	if part.Basis != nil {
		t.Error("partial transfer must drop the basis")
	}
	for i := range trunc.Edges {
		if part.Unit[i] != plan.Unit[i] {
			t.Errorf("edge %d unit not carried", i)
		}
	}
}
