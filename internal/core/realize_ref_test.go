package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
)

// realizeColdReference is realize as it was before its rounding decisions
// moved to warm feasibility probes, kept as the differential oracle: every
// repair solve is a cold solve of the model with the frozen columns
// dropped, and every rounding decision reads such a solve's verdict.
// onRound, when non-nil, sees the freezes (NaN while free) after each
// round that froze at least one request.
func (p *Plan) realizeColdReference(ctx context.Context, onRound func(freeze []float64)) error {
	r := p.R
	nG, nE := len(r.Gates), len(r.Edges)
	p.GateDrive = make([]int, nG)
	p.GateDelay = make([]float64, nG)
	for gi, gid := range r.Gates {
		n := r.Work.Node(gid)
		drive, delay, _ := r.Lib.SlowestAtMost(n, p.GateDelayReq[gi]+1e-9)
		p.GateDrive[gi] = drive
		p.GateDelay[gi] = delay
	}
	freeze := make([]float64, nE)
	for ei := range freeze {
		freeze[ei] = math.NaN()
	}
	solveFrozen := func() (bool, error) {
		spec := frozenSpec(p.T, p.Opts, p.Unit)
		spec.gateDelay, spec.freezeXi = p.GateDelay, freeze
		mv, sol, err := r.solveSpec(ctx, spec)
		if err != nil || sol == nil {
			return false, err
		}
		for ei := 0; ei < nE; ei++ {
			if math.IsNaN(freeze[ei]) {
				p.XiReq[ei] = sol.Value(mv.xi[ei])
			}
		}
		return true, nil
	}
	roundDone := func() {
		if onRound != nil {
			onRound(freeze)
		}
	}

	if ok, err := solveFrozen(); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("core: repair LP infeasible after gate discretization")
	}
	for iter := 0; iter <= nE; iter++ {
		type req struct {
			ei int
			xi float64
		}
		var open []req
		for ei := 0; ei < nE; ei++ {
			if !math.IsNaN(freeze[ei]) {
				continue
			}
			if p.XiReq[ei] <= valTol {
				freeze[ei] = 0
				p.Chain[ei], p.ChainDelay[ei] = nil, 0
				continue
			}
			open = append(open, req{ei, p.XiReq[ei]})
		}
		if len(open) == 0 {
			break
		}
		sort.Slice(open, func(i, j int) bool { return open[i].xi > open[j].xi })
		if len(open) > roundBatch {
			open = open[:roundBatch]
		}
		for _, rq := range open {
			chain, delay := p.buildChainNearest(rq.xi)
			p.Chain[rq.ei], p.ChainDelay[rq.ei] = chain, delay
			freeze[rq.ei] = delay
		}
		if ok, err := solveFrozen(); err != nil {
			return err
		} else if ok {
			roundDone()
			continue
		}
		for _, rq := range open {
			freeze[rq.ei] = math.NaN()
		}
		for _, rq := range open {
			frozen := false
			for _, cand := range p.chainCandidates(rq.xi) {
				freeze[rq.ei] = cand.delay
				if ok, err := solveFrozen(); err != nil {
					return err
				} else if ok {
					p.Chain[rq.ei], p.ChainDelay[rq.ei] = cand.chain, cand.delay
					frozen = true
					break
				}
			}
			if !frozen {
				return fmt.Errorf("core: buffer chain on edge %d not realizable (request %.2f)", rq.ei, rq.xi)
			}
		}
		roundDone()
	}
	if vs := p.Validate(); len(vs) > 0 {
		return fmt.Errorf("core: realization invalid: %v", vs[0])
	}
	return nil
}

// roundState is one round's outcome: the freezes (NaN while free) and the
// requests of the edges still free (NaN for frozen edges).
type roundState struct{ freeze, free []float64 }

func snapshotRound(p *Plan, freeze []float64) roundState {
	st := roundState{append([]float64(nil), freeze...), make([]float64, len(freeze))}
	for ei, f := range freeze {
		st.free[ei] = math.NaN()
		if math.IsNaN(f) {
			st.free[ei] = p.XiReq[ei]
		}
	}
	return st
}

// sameBits compares float slices bit for bit, so NaN equals NaN.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameRealization realizes copies of the unrealized plan pre with
// realize and with realizeColdReference. Both must succeed or both fail;
// each round must end with the same freezes and the same requests on the
// edges still free. When both succeed the results must have identical
// units, chains, chain delays, gate drives and gate delays; when both
// fail, the same error text. A failed plan is discarded (solvePeriod),
// and its chains differ: the reference's first tries every round's
// nearest roundings as one batch and leaves those chains on the edges
// its single-edge fallback never reached. It returns realize's plan, nil
// when realization failed.
func requireSameRealization(t testing.TB, label string, pre *Plan) *Plan {
	t.Helper()
	ctx := context.Background()

	want := pre.clone()
	var wantRounds []roundState
	errWant := want.realizeColdReference(ctx, func(freeze []float64) {
		wantRounds = append(wantRounds, snapshotRound(want, freeze))
	})

	// The same rounds as realize, one at a time, to see each round's end.
	stepped := pre.clone()
	var gotRounds []roundState
	errStepped := func() error {
		rd, err := stepped.startRounding(ctx)
		if err != nil {
			return err
		}
		for iter := 0; iter <= len(stepped.R.Edges); iter++ {
			// A round froze a batch, as the reference's rounds that
			// report, when it started with an open request.
			batch := false
			for ei, f := range rd.freeze {
				batch = batch || math.IsNaN(f) && stepped.XiReq[ei] > valTol
			}
			done, err := rd.round(ctx)
			if err != nil {
				return err
			}
			if batch {
				gotRounds = append(gotRounds, snapshotRound(stepped, rd.freeze))
			}
			if done {
				break
			}
		}
		if vs := stepped.Validate(); len(vs) > 0 {
			return fmt.Errorf("core: realization invalid: %v", vs[0])
		}
		return nil
	}()

	got := pre.clone()
	errGot := got.realize(ctx)

	if (errGot == nil) != (errWant == nil) || (errStepped == nil) != (errGot == nil) {
		t.Fatalf("%s: realize err %v, stepped err %v, cold reference err %v", label, errGot, errStepped, errWant)
	}
	for k := 0; k < min(len(gotRounds), len(wantRounds)); k++ {
		g, w := gotRounds[k], wantRounds[k]
		if !sameBits(g.freeze, w.freeze) {
			t.Fatalf("%s round %d: freezes differ\n got %v\nwant %v", label, k, g.freeze, w.freeze)
		}
		if !sameBits(g.free, w.free) {
			t.Fatalf("%s round %d: free edges' XiReq differ\n got %v\nwant %v", label, k, g.free, w.free)
		}
	}
	if errWant != nil {
		for _, err := range []error{errGot, errStepped} {
			if err.Error() != errWant.Error() {
				t.Fatalf("%s: error %q, cold reference %q", label, err, errWant)
			}
		}
		return nil
	}
	if len(gotRounds) != len(wantRounds) {
		t.Fatalf("%s: %d rounds, cold reference %d", label, len(gotRounds), len(wantRounds))
	}
	for _, q := range []*Plan{got, stepped} {
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Unit", q.Unit, want.Unit},
			{"Chain", q.Chain, want.Chain},
			{"ChainDelay", q.ChainDelay, want.ChainDelay},
			{"GateDrive", q.GateDrive, want.GateDrive},
			{"GateDelay", q.GateDelay, want.GateDelay},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("%s: %s differs from the cold reference\n got %v\nwant %v", label, f.name, f.got, f.want)
			}
		}
	}
	return got
}

// checkRealizeAlongSearch runs OptimizeObserved's period search on c and
// replays it probe by probe, including the final re-solve before
// replacement: each probe's unrealized plan comes from phases 1-3 with the
// hint the search used, and requireSameRealization holds realize to the
// cold reference on it. The replay must reproduce the search's verdicts.
// It returns the number of plans checked, or the search's error.
func checkRealizeAlongSearch(t testing.TB, c *netlist.Circuit, lib *celllib.Library, opts Options) (int, error) {
	t.Helper()
	ctx := context.Background()
	var events []ProgressEvent
	res, err := OptimizeObserved(ctx, c, lib, opts, DefaultStepFrac, func(ev ProgressEvent) {
		events = append(events, ev)
	})
	if err != nil {
		return 0, err
	}
	r, err := Extract(c, lib, opts.SelectFrac)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	var best *Plan
	for i, ev := range events {
		var p *Plan
		// solvePeriod's guard: the logic outside the region must meet T.
		if ev.T >= r.ExternalPeriod*opts.Ru-1e-9 {
			pre, err := optimizeRegion(ctx, r, ev.T, opts, best)
			if err != nil {
				t.Fatal(err)
			}
			if pre != nil {
				p = requireSameRealization(t, fmt.Sprintf("%s probe %d (%s T=%.4f)", c.Name, i, ev.Stage, ev.T), pre)
				checked++
			}
		}
		if ev.Stage == "replace" {
			continue // emitted before the re-solve, always feasible
		}
		if (p != nil) != ev.Feasible {
			t.Fatalf("%s probe %d (%s T=%.4f): replay feasible %v, search %v", c.Name, i, ev.Stage, ev.T, p != nil, ev.Feasible)
		}
		if p != nil {
			best = p
		}
	}
	if best == nil || best.T != res.Period {
		t.Fatalf("%s: replay ends without the search's period T=%.4f", c.Name, res.Period)
	}
	return checked, nil
}

// TestRealizeMatchesColdReference holds realize, whose rounding decisions
// come from warm feasibility probes, to the all-cold reference on every
// plan the period search realizes on s5378, mem_ctrl and s38584.
func TestRealizeMatchesColdReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs and replays three suite period searches")
	}
	lib := celllib.Default()
	for _, name := range []string{"s5378", "mem_ctrl", "s38584"} {
		t.Run(name, func(t *testing.T) {
			n, err := checkRealizeAlongSearch(t, suiteBaseline(t, name, lib), lib, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d plans realized both ways", n)
		})
	}
}

// FuzzRealizeVsColdReference holds realize to the cold reference
// (requireSameRealization) on circuits decoded from fuzz bytes
// (gen.DecodeCase), at the case's target period T0·(1−TFrac) and at the
// guard-banded baseline period T0, the two periods the differential
// checker in internal/verify optimizes. A whole period search per input
// would take seconds; one unhinted solve per period keeps inputs fast.
func FuzzRealizeVsColdReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 6, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{200, 1, 7, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{9, 2, 2, 1, 4, 250, 13, 40, 7, 99, 3, 18, 5, 77, 1, 0, 254, 6, 21, 8})
	f.Add([]byte{1, 1, 6, 2, 4, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 127, 63, 31, 15, 7, 3})
	lib := celllib.Default()
	opts := DefaultOptions()
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := gen.DecodeCase(data)
		if err != nil {
			return
		}
		r, err := Extract(d.Circuit, lib, opts.SelectFrac)
		if err != nil {
			return
		}
		T0 := r.Baseline.MinPeriod * opts.Ru
		periods := []float64{T0}
		if d.TFrac > 0 {
			periods = append(periods, T0*(1-d.TFrac))
		}
		for _, T := range periods {
			if T < r.ExternalPeriod*opts.Ru-1e-9 {
				continue
			}
			pre, err := optimizeRegion(context.Background(), r, T, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pre != nil {
				requireSameRealization(t, fmt.Sprintf("T=%.4f", T), pre)
			}
		}
	})
}
