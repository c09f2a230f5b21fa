package bench

import (
	"testing"
	"time"
)

func TestSpanTimesSelf(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{Name: "bench.op", ID: 1, Start: 0, End: 100 * ms},
		{Name: "core.optimize", ID: 2, Parent: 1, Start: 10 * ms, End: 60 * ms},
		// Overlaps its sibling: the overlap counts once against the parent.
		{Name: "sim.verify_lanes", ID: 3, Parent: 1, Start: 50 * ms, End: 80 * ms},
		{Name: "core.probe", ID: 4, Parent: 2, Start: 10 * ms, End: 30 * ms},
		// Ends after its parent: clipped to the parent's interval.
		{Name: "core.probe", ID: 5, Parent: 2, Start: 30 * ms, End: 70 * ms},
	}
	total, self := spanTimes(spans)
	d := func(n int64) time.Duration { return time.Duration(n * ms) }
	for name, want := range map[string][2]time.Duration{
		"bench.op":         {d(100), d(30)}, // children cover 10..80
		"core.optimize":    {d(50), 0},      // probes cover 10..60
		"sim.verify_lanes": {d(30), d(30)},
		"core.probe":       {d(60), d(60)},
	} {
		if total[name] != want[0] || self[name] != want[1] {
			t.Errorf("%s: total %v self %v, want %v and %v", name, total[name], self[name], want[0], want[1])
		}
	}
	layers := layerTimes(self)
	if layers["core"] != d(60) || layers["bench"] != d(30) || layers["sim"] != d(30) {
		t.Errorf("layer self times %v", layers)
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer(false)
	id := tr.Begin("core.optimize", "s5378", 0)
	tr.End(id, "k", 1)
	tr.Span("core.probe", "s5378", id, time.Now(), time.Now())
	if id != 0 || len(tr.Spans()) != 0 {
		t.Fatalf("disabled tracer recorded %d spans (id %d)", len(tr.Spans()), id)
	}
}
