package core

import (
	"context"
	"testing"
)

// TestResultSolverStats checks that an optimization reports the LP work
// it performed: nonzero pivots and start counts, and at least one
// warm-started solve from the period sweep's basis threading.
func TestResultSolverStats(t *testing.T) {
	lib := paperLib(t)
	c := wavePipe(t)
	res, err := OptimizeObserved(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Solver
	if s.Pivots() == 0 {
		t.Errorf("no pivots recorded: %+v", s)
	}
	if s.WarmStarts+s.ColdStarts == 0 {
		t.Errorf("no solves recorded: %+v", s)
	}
	if s.WarmStarts == 0 {
		t.Errorf("period sweep recorded no warm-started solves: %+v", s)
	}
}

// TestOptimizeObserved checks the progress observer: at least one probe
// event, monotone cumulative counters, and a final replace event when
// buffer replacement is enabled.
func TestOptimizeObserved(t *testing.T) {
	lib := paperLib(t)
	c := wavePipe(t)
	var events []ProgressEvent
	res, err := OptimizeObserved(context.Background(), c, lib, DefaultOptions(), 0.02,
		func(ev ProgressEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("observer saw no events")
	}
	probes, replaces := 0, 0
	prevPivots := 0
	for _, ev := range events {
		switch ev.Stage {
		case "probe":
			probes++
		case "replace":
			replaces++
		case "refine":
		default:
			t.Errorf("unknown stage %q", ev.Stage)
		}
		if ev.Solver.Pivots() < prevPivots {
			t.Errorf("cumulative pivots decreased: %d -> %d", prevPivots, ev.Solver.Pivots())
		}
		prevPivots = ev.Solver.Pivots()
	}
	if probes == 0 {
		t.Error("no probe events")
	}
	if replaces != 1 {
		t.Errorf("got %d replace events, want 1", replaces)
	}
	if last := events[len(events)-1]; res.Solver.Pivots() < last.Solver.Pivots() {
		t.Errorf("final result pivots %d below last event's %d",
			res.Solver.Pivots(), last.Solver.Pivots())
	}
}
