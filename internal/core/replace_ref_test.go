package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
	"virtualsync/internal/prng"
)

// replaceBuffersColdReference is replaceBuffers as it was before its
// tries asked the repair twin first, kept as the differential oracle:
// every try that reaches the repair LP solves it cold. onTry, when
// non-nil, sees each such try's plan, the cold verdict and the solver
// work of the cold solve.
func (p *Plan) replaceBuffersColdReference(ctx context.Context, onTry func(q *Plan, feasible bool, work lp.Stats)) (replaced int) {
	r := p.R
	nE := len(r.Edges)
	tryUnitAt := func(ei int, early float64, kind UnitKind, phaseFrac float64) *Plan {
		nGuess := int(math.Floor((early - phaseFrac*p.T) / p.T))
		for _, n := range []int{nGuess, nGuess + 1} {
			q := p.clone()
			q.Unit[ei] = Placement{Kind: kind, PhaseFrac: phaseFrac, N: n}
			q.Chain[ei], q.ChainDelay[ei] = nil, 0
			if vs := q.Validate(); len(vs) == 0 {
				return q
			}
			spec := frozenSpec(q.T, q.Opts, q.Unit)
			spec.gateDelay, spec.quantMargin = q.GateDelay, q.quantMargin()
			before := r.SolverStats()
			mv, sol, err := r.solveSpec(ctx, spec)
			if onTry != nil {
				onTry(q, sol != nil, statsSince(r, before))
			}
			if err != nil || sol == nil {
				continue
			}
			for i := 0; i < nE; i++ {
				q.XiReq[i] = sol.Value(mv.xi[i])
				q.Chain[i], q.ChainDelay[i] = q.buildChain(q.XiReq[i])
			}
			if st, vs := q.validate(ValidateParams{}); len(q.repairChains(st, vs)) == 0 {
				return q
			}
		}
		return nil
	}
	kind := UnitFF
	if p.Opts.UseLatches {
		kind = UnitLatch
	}
	for _, cd := range p.replaceCandidates(kind) {
		st, vs := p.propagate(p.env(ValidateParams{}))
		if st == nil || len(vs) > 0 {
			continue
		}
		early := st.wEarly[cd.ei] - p.ChainDelay[cd.ei]*p.Opts.Rl
		var q *Plan
		for _, ph := range p.Opts.Phases {
			if q = tryUnitAt(cd.ei, early, kind, ph); q != nil {
				break
			}
		}
		if q != nil && q.InsertedArea() < p.InsertedArea() {
			*p = *q
			replaced++
		}
	}
	return replaced
}

// statsSince returns the region's solver work since before.
func statsSince(r *Region, before lp.Stats) lp.Stats {
	now := r.SolverStats()
	return lp.Stats{
		Phase1Pivots: now.Phase1Pivots - before.Phase1Pivots,
		Phase2Pivots: now.Phase2Pivots - before.Phase2Pivots,
		WarmStarts:   now.WarmStarts - before.WarmStarts,
		ColdStarts:   now.ColdStarts - before.ColdStarts,
	}
}

// replaceTally counts one or more replacement passes' repair-LP tries:
// the cold reference's solves split by verdict, with their pivots, the
// twin probes' pivots on the tries the cold solve finds infeasible, and
// the cold solves replaceBuffers itself ran.
type replaceTally struct {
	tries, feasible, disagree    int
	coldFeasPiv, coldInfeasPiv   int
	twinInfeasPiv, twinProbes    int
	coldAfterTwin, coldAfterPivs int
}

func (a *replaceTally) add(b replaceTally) {
	a.tries += b.tries
	a.feasible += b.feasible
	a.disagree += b.disagree
	a.coldFeasPiv += b.coldFeasPiv
	a.coldInfeasPiv += b.coldInfeasPiv
	a.twinInfeasPiv += b.twinInfeasPiv
	a.twinProbes += b.twinProbes
	a.coldAfterTwin += b.coldAfterTwin
	a.coldAfterPivs += b.coldAfterPivs
}

func (a replaceTally) String() string {
	return fmt.Sprintf("%d repair-LP tries, %d feasible, %d verdict disagreements; "+
		"cold reference: %d solves (%d feasible: %d pivots, %d infeasible: %d pivots); "+
		"twin: %d probes, %d pivots on the infeasible tries; replaceBuffers: %d cold solves, %d pivots",
		a.tries, a.feasible, a.disagree, a.tries, a.feasible, a.coldFeasPiv, a.tries-a.feasible, a.coldInfeasPiv,
		a.twinProbes, a.twinInfeasPiv, a.coldAfterTwin, a.coldAfterPivs)
}

// requireSameReplacement runs replacement on copies of the realized
// plan pre twice: with the cold reference, asking a repair twin of the
// same pass for its verdict on every try the reference solves, and with
// replaceBuffers. Every twin verdict must equal the cold one, and the
// two passes must end with identical plans and replacement counts.
func requireSameReplacement(t testing.TB, label string, pre *Plan) replaceTally {
	t.Helper()
	ctx := context.Background()
	var tl replaceTally

	want := pre.clone()
	kind := UnitFF
	if want.Opts.UseLatches {
		kind = UnitLatch
	}
	rp := &replacePass{p: want, cands: want.replaceCandidates(kind)}
	nWant := want.replaceBuffersColdReference(ctx, func(q *Plan, feasible bool, work lp.Stats) {
		tl.tries++
		before := q.R.SolverStats()
		ok, err := rp.fits(ctx, q)
		if err != nil {
			t.Fatalf("%s: try %+v on T=%.4f: twin: %v", label, q.Unit, q.T, err)
		}
		twin := statsSince(q.R, before).Pivots()
		tl.twinProbes++
		if feasible {
			tl.feasible++
			tl.coldFeasPiv += work.Pivots()
		} else {
			tl.coldInfeasPiv += work.Pivots()
			tl.twinInfeasPiv += twin
		}
		if ok != feasible {
			tl.disagree++
			t.Errorf("%s: try %+v on T=%.4f: twin feasible %v, cold %v", label, q.Unit, q.T, ok, feasible)
		}
	})

	got := pre.clone()
	before := got.R.SolverStats()
	nGot, err := got.replaceBuffers(ctx)
	if err != nil {
		t.Fatalf("%s: replaceBuffers: %v", label, err)
	}
	work := statsSince(got.R, before)
	// The pass's first probe starts the twin's basis chain cold; every
	// other cold start is a repair LP's value solve.
	tl.coldAfterTwin = work.ColdStarts - min(1, tl.tries)
	tl.coldAfterPivs = work.Pivots()

	if nGot != nWant {
		t.Fatalf("%s: replaceBuffers replaced %d chains, cold reference %d", label, nGot, nWant)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Unit", got.Unit, want.Unit},
		{"XiReq", got.XiReq, want.XiReq},
		{"Chain", got.Chain, want.Chain},
		{"ChainDelay", got.ChainDelay, want.ChainDelay},
		{"GateDrive", got.GateDrive, want.GateDrive},
		{"GateDelay", got.GateDelay, want.GateDelay},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs from the cold reference\n got %v\nwant %v", label, f.name, f.got, f.want)
		}
	}
	return tl
}

// searchReplacements runs the period search on c without replacement and
// holds both of its replacement passes to the cold reference: the final
// re-solve's, as OptimizeObserved finishes it, and Fig. 8's finish of
// the baseline-period probe (Result.AtBaselinePeriod).
func searchReplacements(t testing.TB, label string, c *netlist.Circuit, lib *celllib.Library) replaceTally {
	t.Helper()
	ctx := context.Background()
	opts := DefaultOptions()
	opts.BufferReplace = false
	res, err := OptimizeObserved(ctx, c, lib, opts, DefaultStepFrac, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	opts.BufferReplace = true
	final, err := solvePeriod(ctx, res.Plan.R, res.Period, opts, res.Plan)
	if err != nil || final == nil {
		t.Fatalf("%s: re-solve before replacement: %v", label, err)
	}
	tl := requireSameReplacement(t, label+" final", final)
	if res.atBaseline != nil {
		tl.add(requireSameReplacement(t, label+" at baseline", res.atBaseline))
	}
	return tl
}

// ecoResizeScript draws n single-gate resizes on c from a fixed seed,
// each moving a gate with several drives to another drive: the edit
// script of the end-to-end benchmark's eco-stream workload.
func ecoResizeScript(c *netlist.Circuit, lib *celllib.Library, n int) []netlist.Edit {
	rng := prng.New(1)
	type cand struct {
		name   string
		drives int
	}
	var cands []cand
	drive := map[string]int{}
	for _, g := range c.Gates() {
		name := g.Cell
		if name == "" {
			name = g.Kind.String()
		}
		if cell := lib.Cell(name); cell != nil && len(cell.Options) > 1 {
			cands = append(cands, cand{g.Name, len(cell.Options)})
			drive[g.Name] = g.Drive
		}
	}
	edits := make([]netlist.Edit, 0, n)
	for len(edits) < n && len(cands) > 0 {
		g := cands[rng.Uint64()%uint64(len(cands))]
		d := int(rng.Uint64() % uint64(g.drives-1))
		if d >= drive[g.name] {
			d++
		}
		drive[g.name] = d
		edits = append(edits, netlist.Edit{Op: netlist.EditResize, Node: g.name, Drive: d})
	}
	return edits
}

// TestReplacementVerdictsMatchCold replays every replacement try of the
// ten Table 1 circuits (the period search's finish and Fig. 8's) and of
// the eco-stream script (eleven resizes on a live s5378 session, each
// re-optimized incrementally) and requires the repair twin's verdict to
// equal the cold repair LP's on each, and replaceBuffers to end where
// the all-cold reference does. It logs the solve and pivot counts.
func TestReplacementVerdictsMatchCold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten suite period searches and an ECO script")
	}
	lib := celllib.Default()
	var table1 replaceTally
	for _, spec := range gen.PaperSuite() {
		tl := searchReplacements(t, spec.Name, suiteBaseline(t, spec.Name, lib), lib)
		t.Logf("%s: %v", spec.Name, tl)
		table1.add(tl)
	}
	t.Logf("Table 1: %v", table1)

	ctx := context.Background()
	s, err := NewSession(ctx, suiteBaseline(t, "s5378", lib), lib, DefaultOptions(), DefaultStepFrac, nil)
	if err != nil {
		t.Fatal(err)
	}
	var eco replaceTally
	for i, e := range ecoResizeScript(s.Circuit, lib, 11) {
		label := fmt.Sprintf("eco edit %d (%s)", i, netlist.FormatEdit(e))
		work, plan, _, err := s.resolve(ctx, []netlist.Edit{e})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if plan != nil {
			eco.add(requireSameReplacement(t, label, plan.clone()))
		} else {
			eco.add(searchReplacements(t, label+" fallback", work, lib))
		}
		if _, _, err := s.Reoptimize(ctx, []netlist.Edit{e}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	t.Logf("eco-stream: %v", eco)
	if table1.tries == 0 || eco.tries == 0 {
		t.Fatal("no repair-LP try replayed")
	}
}

// FuzzReplacementVsColdReference holds replaceBuffers, whose tries ask
// the repair twin before any cold solve, to the all-cold reference
// (requireSameReplacement) on circuits decoded from fuzz bytes
// (gen.DecodeCase), at the guard-banded baseline period T0 and at the
// case's target period T0·(1−TFrac), each realized by one unhinted
// solve.
func FuzzReplacementVsColdReference(f *testing.F) {
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
			p, err := solvePeriod(context.Background(), r, T, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p != nil {
				requireSameReplacement(t, fmt.Sprintf("T=%.4f", T), p)
			}
		}
	})
}
