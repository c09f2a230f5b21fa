package verify

// FuzzIncrementalECO is the differential target for the incremental ECO
// path. Each input decodes to a circuit plus a derived edit list; the
// target then demands that a session's Reoptimize produces a plan that
// satisfies the exact model, a structurally valid netlist, and
// cycle-accurate equivalence with the edited original — the same bar
// the cold pipeline is held to by FuzzOptimizeEquivalence.
//
// Run continuously with
//
//	go test -fuzz=FuzzIncrementalECO -fuzztime=20s ./internal/verify

import (
	"context"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sim"
	"virtualsync/internal/sta"
)

// deriveEdits maps the tail bytes of a fuzz input onto a small edit list
// over c's gates: drive resizes (always valid against the library) and
// single-pin rewires to other non-output nodes. Rewires may create
// combinational loops; the caller validates and skips those cases.
func deriveEdits(c *netlist.Circuit, lib *celllib.Library, data []byte) []netlist.Edit {
	gates := c.Gates()
	if len(gates) == 0 || len(data) == 0 {
		return nil
	}
	var drivers []*netlist.Node
	c.Live(func(n *netlist.Node) {
		if n.Kind != netlist.KindOutput {
			drivers = append(drivers, n)
		}
	})
	tail := data
	if len(tail) > 6 {
		tail = tail[len(tail)-6:]
	}
	var edits []netlist.Edit
	for i := 0; i+1 < len(tail); i += 2 {
		g := gates[int(tail[i])%len(gates)]
		sel := tail[i+1]
		switch {
		case sel%4 == 3 && len(g.Fanins) > 0:
			pin := int(sel>>2) % len(g.Fanins)
			drv := drivers[int(sel>>4)%len(drivers)]
			if drv.ID == g.ID {
				continue
			}
			edits = append(edits, netlist.Edit{Op: netlist.EditRewire, Node: g.Name, Pin: pin, Driver: drv.Name})
		case sel%2 == 0:
			if d, _, _, ok := lib.FasterDrive(g); ok {
				edits = append(edits, netlist.Edit{Op: netlist.EditResize, Node: g.Name, Drive: d})
			}
		default:
			if d, _, _, ok := lib.SlowerDrive(g); ok {
				edits = append(edits, netlist.Edit{Op: netlist.EditResize, Node: g.Name, Drive: d})
			}
		}
	}
	return edits
}

// maxSessionGates bounds the circuits the target checks; larger decoded
// circuits are skipped. Together with the coarse recovery step below it
// keeps the worst per-input time in fuzzing range (Reoptimize can degrade to a cold
// period search, which at the paper's step on a deep decoded circuit
// runs for tens of seconds).
const (
	maxSessionGates = 24
	sessionStepFrac = 0.08
)

func FuzzIncrementalECO(f *testing.F) {
	fuzzSeeds(f)
	lib := celllib.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := gen.DecodeCase(data)
		if err != nil {
			return
		}
		edits := deriveEdits(d.Circuit, lib, data)
		if len(edits) == 0 || len(d.Circuit.Gates()) > maxSessionGates {
			return
		}
		prev, err := sta.Analyze(d.Circuit, lib)
		if err != nil {
			return
		}
		work := d.Circuit.Clone()
		if _, err := work.ApplyEdits(edits); err != nil {
			t.Fatalf("derived edits rejected: %v\nedits:\n%s", err, netlist.FormatEdits(edits))
		}
		// A rewire may leave the domain (invalid or cyclic): nothing to check.
		if work.Validate() != nil {
			return
		}
		if _, err := work.TopoOrder(); err != nil {
			return
		}
		ctx := context.Background()
		opts := core.DefaultOptions()
		T0 := prev.MinPeriod * opts.Ru
		sess, err := core.NewSessionAtPeriod(ctx, d.Circuit, lib, T0*(1-d.TFrac), opts)
		if err == nil && sess == nil && d.TFrac > 0 {
			sess, err = core.NewSessionAtPeriod(ctx, d.Circuit, lib, T0, opts)
		}
		if err != nil {
			if !isBenign(err) {
				t.Fatalf("session: %v", err)
			}
			return
		}
		if sess == nil {
			return // probed period infeasible: a Skip, not a bug
		}
		sess.StepFrac = sessionStepFrac
		res, _, err := sess.Reoptimize(ctx, edits)
		if err != nil {
			if !isBenign(err) {
				t.Fatalf("reoptimize: %v\nedits:\n%s", err, netlist.FormatEdits(edits))
			}
			return
		}
		if vs := res.Plan.Validate(); len(vs) > 0 {
			t.Fatalf("ECO plan violates exact model: %v\nedits:\n%s", vs[0], netlist.FormatEdits(edits))
		}
		if err := res.Circuit.Validate(); err != nil {
			t.Fatalf("ECO circuit invalid: %v", err)
		}
		if _, err := res.Circuit.TopoOrder(); err != nil {
			t.Fatalf("ECO circuit unschedulable: %v", err)
		}
		// A register the stimulus never flushes keeps its power-on value,
		// which register relocation legitimately changes: as in
		// Checker.simStage, such traces are not comparable.
		warmup := max(d.Warmup, res.VerifyWarmup())
		stim := sim.RandomStimulus(sess.Circuit, d.Cycles, d.StimSeed)
		if unflushed(sess.Circuit, stim, warmup) != nil {
			return
		}
		ms, err := sim.VerifyEquivalenceStim(sess.Circuit, res.Circuit, lib, res.BaselinePeriod, res.Period, warmup, stim)
		if err != nil {
			t.Fatalf("equivalence sim: %v", err)
		}
		if len(ms) != 0 {
			t.Fatalf("ECO result diverges from edited original: %v\nedits:\n%s",
				ms[0], netlist.FormatEdits(edits))
		}
	})
}
