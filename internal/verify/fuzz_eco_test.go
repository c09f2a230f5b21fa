package verify

// FuzzIncrementalECO is the differential target for the incremental ECO
// path. Each input decodes to a circuit plus a derived edit list; the
// target then demands, in order:
//
//  1. incremental STA after the edits is bit-identical to a full
//     re-analysis of the edited circuit, and
//  2. a session's Reoptimize produces a plan that satisfies the exact
//     model, a structurally valid netlist, and cycle-accurate
//     equivalence with the edited original — the same bar the cold
//     pipeline is held to by FuzzOptimizeEquivalence.
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

// maxSessionGates bounds the circuits on which the full session
// differential runs; larger decoded circuits get the STA layer only.
// Together with the coarse recovery step below it keeps the worst
// per-input time in fuzzing range (Reoptimize can degrade to a cold
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
		if len(edits) == 0 {
			return
		}
		prev, err := sta.Analyze(d.Circuit, lib)
		if err != nil {
			return
		}
		work := d.Circuit.Clone()
		er, err := work.ApplyEdits(edits)
		if err != nil {
			t.Fatalf("derived edits rejected: %v\nedits:\n%s", err, netlist.FormatEdits(edits))
		}
		if work.Validate() != nil || len(work.CombLoops()) > 0 {
			return // a rewire left the domain; nothing to check
		}

		// Layer 1: incremental STA must be bit-identical to a fresh one.
		inc, _, err := sta.AnalyzeIncremental(work, lib, prev, er.Touched)
		if err != nil {
			t.Fatalf("incremental STA: %v", err)
		}
		full, err := sta.Analyze(work, lib)
		if err != nil {
			t.Fatalf("full STA on edited circuit: %v", err)
		}
		if inc.MinPeriod != full.MinPeriod {
			t.Fatalf("incremental MinPeriod %v != full %v\nedits:\n%s",
				inc.MinPeriod, full.MinPeriod, netlist.FormatEdits(edits))
		}
		work.Live(func(n *netlist.Node) {
			if inc.MaxArrival[n.ID] != full.MaxArrival[n.ID] ||
				inc.MinArrival[n.ID] != full.MinArrival[n.ID] ||
				inc.Down[n.ID] != full.Down[n.ID] {
				t.Fatalf("node %s: incremental (%v,%v,%v) != full (%v,%v,%v)\nedits:\n%s",
					n.Name, inc.MaxArrival[n.ID], inc.MinArrival[n.ID], inc.Down[n.ID],
					full.MaxArrival[n.ID], full.MinArrival[n.ID], full.Down[n.ID],
					netlist.FormatEdits(edits))
			}
		})

		// Layer 2: the incremental re-solve is held to the cold bar. The
		// cold session runs a full period search, so this layer is bounded
		// to small circuits to keep per-input time in fuzzing range; the
		// STA differential above still covers every decodable input.
		if len(d.Circuit.Gates()) > maxSessionGates {
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
		ms, err := sim.VerifyEquivalenceStim(sess.Circuit, res.Circuit, lib, res.BaselinePeriod, res.Period,
			max(d.Warmup, res.VerifyWarmup()), sim.RandomStimulus(sess.Circuit, d.Cycles, d.StimSeed))
		if err != nil {
			t.Fatalf("equivalence sim: %v", err)
		}
		if len(ms) != 0 {
			t.Fatalf("ECO result diverges from edited original: %v\nedits:\n%s",
				ms[0], netlist.FormatEdits(edits))
		}
	})
}
