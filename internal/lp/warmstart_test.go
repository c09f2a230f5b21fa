package lp

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// timingLP builds a randomized chain-of-difference-constraints LP shaped
// like the emulation model: free arrival variables, boxed padding
// variables with random positive cost, chain rows
// s_i - s_{i-1} + pad_i >= d_i and tight per-node deadlines. The
// deadline slope (6) sits below the mean stage delay, so the optimum
// genuinely buys padding on the deficit stages and the LP pivots.
func timingLP(rng *rand.Rand, n int) (*Model, []VarID) {
	m := NewModel("timing")
	prev := m.AddVar("s0", 0, 0, 0)
	var pads []VarID
	for i := 1; i < n; i++ {
		s := m.AddVar("s", -Inf, Inf, 0)
		pad := m.AddVar("p", 0, 8, 1+rng.Float64())
		pads = append(pads, pad)
		d := 4 + 5*rng.Float64()
		m.MustConstrain("c", []Term{{s, 1}, {prev, -1}, {pad, 1}}, GE, d)
		m.MustConstrain("u", []Term{{s, 1}}, LE, 6*float64(i)+5)
		prev = s
	}
	return m, pads
}

// TestWarmVsColdObjectives cross-checks warm-started solves against cold
// solves on randomized timing-shaped LPs after tightening a few variable
// bounds, the way a branch-and-bound child or a re-probed period does.
func TestWarmVsColdObjectives(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, pads := timingLP(rng, 40)
		cold1, err := m.Solve(context.Background(), nil)
		if err != nil || cold1.Status != Optimal {
			t.Fatalf("seed %d: base solve: %+v %v", seed, cold1, err)
		}
		if cold1.Basis == nil {
			t.Fatalf("seed %d: optimal solve returned no basis", seed)
		}

		// Tighten a few pad upper bounds (still feasible: pads can be 0).
		for k := 0; k < 3; k++ {
			v := pads[rng.Intn(len(pads))]
			lb, ub := m.Bounds(v)
			m.SetBounds(v, lb, ub/2)
		}
		cold2, err := m.Solve(context.Background(), nil)
		if err != nil || cold2.Status != Optimal {
			t.Fatalf("seed %d: cold re-solve: %+v %v", seed, cold2, err)
		}
		warm2, err := m.Solve(context.Background(), cold1.Basis)
		if err != nil || warm2.Status != Optimal {
			t.Fatalf("seed %d: warm re-solve: %+v %v", seed, warm2, err)
		}
		if warm2.Stats.WarmStarts == 0 {
			t.Fatalf("seed %d: warm seed was not used: %+v", seed, warm2.Stats)
		}
		if math.Abs(warm2.Objective-cold2.Objective) > 1e-6 {
			t.Fatalf("seed %d: warm %.9f vs cold %.9f", seed, warm2.Objective, cold2.Objective)
		}
		if warm2.Stats.Pivots() > cold2.Stats.Pivots() {
			t.Logf("seed %d: warm took more pivots (%d) than cold (%d)",
				seed, warm2.Stats.Pivots(), cold2.Stats.Pivots())
		}
	}
}

// timingILP adds binary case-selection variables coupled to the paddings
// through big-M rows, shaped like the legalization ILP: padding an edge
// beyond a small free allowance requires enabling its delay unit, so the
// relaxation sets the binaries fractional and branch-and-bound has to
// work. Random continuous costs make the optimum unique with probability
// 1, so solutions (not just objectives) must agree across
// configurations.
func timingILP(rng *rand.Rand, n int) (*Model, []VarID) {
	m, pads := timingLP(rng, n)
	var bins []VarID
	for _, pad := range pads {
		b := m.AddBinVar("b", 1+rng.Float64())
		bins = append(bins, b)
		m.MustConstrain("link", []Term{{pad, 1}, {b, -8}}, LE, 0.5+rng.Float64())
	}
	return m, bins
}

// TestBnBIndependentOfGOMAXPROCS asserts that branch-and-bound returns
// the same incumbent and the same solver counters at any proc count on
// randomized legalization-shaped ILPs.
func TestBnBIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := int64(1); seed <= 6; seed++ {
		var sols [2]*Solution
		var bins []VarID
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			var m *Model
			m, bins = timingILP(rand.New(rand.NewSource(seed)), 25)
			sol, err := m.Solve(context.Background(), nil)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("seed %d, GOMAXPROCS=%d: %+v %v", seed, procs, sol, err)
			}
			sols[i] = sol
		}
		one, four := sols[0], sols[1]
		if one.Objective != four.Objective {
			t.Fatalf("seed %d: objectives differ: %.9f vs %.9f", seed, one.Objective, four.Objective)
		}
		for _, b := range bins {
			if one.Value(b) != four.Value(b) {
				t.Fatalf("seed %d: incumbent binaries differ on %d: %g vs %g",
					seed, b, one.Value(b), four.Value(b))
			}
		}
		if one.Stats != four.Stats {
			t.Fatalf("seed %d: stats differ:\n  GOMAXPROCS=1: %+v\n  GOMAXPROCS=4: %+v", seed, one.Stats, four.Stats)
		}
		if one.Stats.Nodes == 0 {
			t.Fatalf("seed %d: no nodes recorded: %+v", seed, one.Stats)
		}
	}
}

// TestBnBWarmStartHitRate checks that branch-and-bound children actually
// reuse their parent's basis: every node after the root should be seeded.
func TestBnBWarmStartHitRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := timingILP(rng, 25)
	sol, err := m.Solve(context.Background(), nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %+v %v", sol, err)
	}
	if sol.Stats.Nodes < 3 {
		t.Fatalf("tree unexpectedly small, warm starts unexercised: %+v", sol.Stats)
	}
	// Every child node carries its parent's basis; only the root (and
	// any node whose seed was incompatible) solves cold.
	if got := sol.Stats.WarmHitRate(); got < 0.5 {
		t.Fatalf("warm-start hit rate %.2f too low: %+v", got, sol.Stats)
	}
}

// TestCrossKernelWarmStart asserts the statuses-only Basis contract: an
// optimal basis carried out of the dense oracle, or out of the LU kernel
// itself, warm-starts the LU kernel with no phase-1 pivots, and both warm
// solves land on the oracle's cold optimum.
func TestCrossKernelWarmStart(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, _ := timingLP(rng, 60)
		dense := solveModelDense(t, m)
		if dense.status != Optimal {
			t.Fatalf("seed %d: dense cold: %+v", seed, dense)
		}
		luCold, err := m.Solve(context.Background(), nil)
		if err != nil || luCold.Status != Optimal {
			t.Fatalf("seed %d: lu cold: %+v %v", seed, luCold, err)
		}
		for _, c := range []struct {
			from string
			warm *Basis
		}{{"dense", dense.basis}, {"lu", luCold.Basis}} {
			luWarm, err := m.Solve(context.Background(), c.warm)
			if err != nil || luWarm.Status != Optimal {
				t.Fatalf("seed %d: lu warm from %s: %+v %v", seed, c.from, luWarm, err)
			}
			if luWarm.Stats.WarmStarts != 1 {
				t.Fatalf("seed %d: %s basis rejected: %+v", seed, c.from, luWarm.Stats)
			}
			if luWarm.Stats.Phase1Pivots != 0 {
				t.Fatalf("seed %d: lu warm start from %s spent %d phase-1 pivots",
					seed, c.from, luWarm.Stats.Phase1Pivots)
			}
			if math.Abs(luWarm.Objective-dense.obj) > 1e-6 {
				t.Fatalf("seed %d: lu warm from %s %.9f vs dense %.9f",
					seed, c.from, luWarm.Objective, dense.obj)
			}
		}
		if math.Abs(luCold.Objective-dense.obj) > 1e-6 {
			t.Fatalf("seed %d: lu cold %.9f vs dense %.9f", seed, luCold.Objective, dense.obj)
		}
	}
}

// TestCrossKernelWarmStartAfterBoundTightening mirrors the production
// pattern (period re-probe, branch-and-bound child): an oracle basis
// seeds the LU kernel while a few bounds move, and the warm solve must
// still start primal-feasible or repair cheaply — never diverge from a
// cold oracle solve of the tightened model.
func TestCrossKernelWarmStartAfterBoundTightening(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, pads := timingLP(rng, 50)
	dense := solveModelDense(t, m)
	if dense.status != Optimal {
		t.Fatalf("dense cold: %+v", dense)
	}
	for k := 0; k < 3; k++ {
		v := pads[rng.Intn(len(pads))]
		lb, ub := m.Bounds(v)
		m.SetBounds(v, lb, ub/2)
	}
	oracle := solveModelDense(t, m)
	if oracle.status != Optimal {
		t.Fatalf("dense cold after tighten: %+v", oracle)
	}
	cold, err := m.Solve(context.Background(), nil)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("lu cold after tighten: %+v %v", cold, err)
	}
	warm, err := m.Solve(context.Background(), dense.basis)
	if err != nil || warm.Status != Optimal {
		t.Fatalf("lu warm after tighten: %+v %v", warm, err)
	}
	if warm.Stats.WarmStarts != 1 {
		t.Fatalf("warm seed unused: %+v", warm.Stats)
	}
	for name, got := range map[string]float64{"cold": cold.Objective, "warm": warm.Objective} {
		if math.Abs(got-oracle.obj) > 1e-6 {
			t.Fatalf("lu %s %.9f vs dense oracle %.9f", name, got, oracle.obj)
		}
	}
}

// TestSolveCtxCancellation verifies that a cancelled context interrupts
// Solve before the branch-and-bound node cap is reached.
func TestSolveCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := timingILP(rng, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Solve(ctx, nil); err == nil {
		t.Fatal("cancelled context did not interrupt Solve")
	}
}
