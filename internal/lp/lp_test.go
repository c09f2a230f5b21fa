package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
	// Classic Dantzig example: optimum 36 at (2, 6).
	m := NewModel("dantzig")
	m.SetSense(Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	m.MustConstrain("c1", []Term{{x, 1}}, LE, 4)
	m.MustConstrain("c2", []Term{{y, 2}}, LE, 12)
	m.MustConstrain("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 36, 1e-6) {
		t.Fatalf("got %v obj=%g, want optimal 36", s.Status, s.Objective)
	}
	if !approx(s.Value(x), 2, 1e-6) || !approx(s.Value(y), 6, 1e-6) {
		t.Fatalf("solution = (%g,%g), want (2,6)", s.Value(x), s.Value(y))
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 1. Optimum: x=9,y=1 -> 21.
	m := NewModel("ge")
	x := m.AddVar("x", 2, Inf, 2)
	y := m.AddVar("y", 1, Inf, 3)
	m.MustConstrain("c1", []Term{{x, 1}, {y, 1}}, GE, 10)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 21, 1e-6) {
		t.Fatalf("got %v obj=%g, want 21", s.Status, s.Objective)
	}
}

func TestEquality(t *testing.T) {
	// min x + y s.t. x + 2y = 8, x - y = 2 -> x=4, y=2, obj 6.
	m := NewModel("eq")
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 1)
	m.MustConstrain("c1", []Term{{x, 1}, {y, 2}}, EQ, 8)
	m.MustConstrain("c2", []Term{{x, 1}, {y, -1}}, EQ, 2)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Value(x), 4, 1e-6) || !approx(s.Value(y), 2, 1e-6) {
		t.Fatalf("got %v (%g,%g), want (4,2)", s.Status, s.Value(x), s.Value(y))
	}
}

func TestFreeVariables(t *testing.T) {
	// min x s.t. x >= -5 via constraint (x itself free). Optimum -5.
	m := NewModel("free")
	x := m.AddVar("x", math.Inf(-1), Inf, 1)
	m.MustConstrain("c1", []Term{{x, 1}}, GE, -5)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Value(x), -5, 1e-6) {
		t.Fatalf("got %v x=%g, want -5", s.Status, s.Value(x))
	}
}

func TestNegativeBounds(t *testing.T) {
	// min x + y with x in [-10,-2], y in [-4, 7], x + y >= -9.
	// Optimum x=-10 not allowed by constraint; best is x+y=-9 (e.g. -5,-4).
	m := NewModel("neg")
	x := m.AddVar("x", -10, -2, 1)
	y := m.AddVar("y", -4, 7, 1)
	m.MustConstrain("c1", []Term{{x, 1}, {y, 1}}, GE, -9)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -9, 1e-6) {
		t.Fatalf("got %v obj=%g, want -9", s.Status, s.Objective)
	}
	if s.Value(x) < -10-1e-9 || s.Value(x) > -2+1e-9 {
		t.Fatalf("x=%g out of bounds", s.Value(x))
	}
}

func TestUpperBoundOnlyVariable(t *testing.T) {
	// max x with x <= 3 (lb = -inf): optimum 3.
	m := NewModel("ubonly")
	m.SetSense(Maximize)
	x := m.AddVar("x", math.Inf(-1), 3, 1)
	m.MustConstrain("c1", []Term{{x, 1}}, GE, -100)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Value(x), 3, 1e-6) {
		t.Fatalf("got %v x=%g, want 3", s.Status, s.Value(x))
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel("infeas")
	x := m.AddVar("x", 0, Inf, 1)
	m.MustConstrain("c1", []Term{{x, 1}}, GE, 5)
	m.MustConstrain("c2", []Term{{x, 1}}, LE, 3)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("got %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel("unbounded")
	m.SetSense(Maximize)
	x := m.AddVar("x", 0, Inf, 1)
	m.MustConstrain("c1", []Term{{x, 1}}, GE, 0)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("got %v, want unbounded", s.Status)
	}
}

func TestEmptyBoundRange(t *testing.T) {
	m := NewModel("empty")
	m.AddVar("x", 5, 2, 1)
	if _, err := m.Solve(); err == nil {
		t.Fatal("empty bound range accepted")
	}
}

func TestFixedVariable(t *testing.T) {
	m := NewModel("fixed")
	x := m.AddVar("x", 7, 7, 1)
	y := m.AddVar("y", 0, Inf, 1)
	m.MustConstrain("c1", []Term{{x, 1}, {y, 1}}, GE, 10)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value(x), 7, 1e-6) || !approx(s.Value(y), 3, 1e-6) {
		t.Fatalf("got (%g,%g), want (7,3)", s.Value(x), s.Value(y))
	}
}

func TestDegenerateDoesNotCycle(t *testing.T) {
	// Beale's classic cycling example (cycles under naive Dantzig rule).
	// min -0.75x1 + 150x2 - 0.02x3 + 6x4
	// s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
	//      0.5x1 - 90x2 - 0.02x3 + 3x4 <= 0
	//      x3 <= 1
	// Optimum: -0.05 at x1=0.04/0.02... known optimum -1/20.
	m := NewModel("beale")
	x1 := m.AddVar("x1", 0, Inf, -0.75)
	x2 := m.AddVar("x2", 0, Inf, 150)
	x3 := m.AddVar("x3", 0, Inf, -0.02)
	x4 := m.AddVar("x4", 0, Inf, 6)
	m.MustConstrain("c1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.MustConstrain("c2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.MustConstrain("c3", []Term{{x3, 1}}, LE, 1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -0.05, 1e-6) {
		t.Fatalf("got %v obj=%g, want -0.05", s.Status, s.Objective)
	}
}

func TestDifferenceConstraints(t *testing.T) {
	// A timing-style system: arrival variables with difference constraints.
	// s1 >= s0 + 5, s2 >= s1 + 6, s2 <= 17 with s0 = 3; minimize s2.
	m := NewModel("diff")
	s0 := m.AddVar("s0", 3, 3, 0)
	s1 := m.AddVar("s1", math.Inf(-1), Inf, 0)
	s2 := m.AddVar("s2", math.Inf(-1), Inf, 1)
	m.MustConstrain("c1", []Term{{s1, 1}, {s0, -1}}, GE, 5)
	m.MustConstrain("c2", []Term{{s2, 1}, {s1, -1}}, GE, 6)
	m.MustConstrain("c3", []Term{{s2, 1}}, LE, 17)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Value(s2), 14, 1e-6) {
		t.Fatalf("got %v s2=%g, want 14", s.Status, s.Value(s2))
	}
}

func TestKnapsackILP(t *testing.T) {
	// max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary. Optimum: a+c? 3+2=5 ->
	// 17; b+c = 6 -> 20. So {b,c} with value 20.
	m := NewModel("knap")
	m.SetSense(Maximize)
	a := m.AddBinVar("a", 10)
	b := m.AddBinVar("b", 13)
	c := m.AddBinVar("c", 7)
	m.MustConstrain("cap", []Term{{a, 3}, {b, 4}, {c, 2}}, LE, 6)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 20, 1e-6) {
		t.Fatalf("got %v obj=%g, want 20", s.Status, s.Objective)
	}
	if !approx(s.Value(a), 0, 1e-6) || !approx(s.Value(b), 1, 1e-6) || !approx(s.Value(c), 1, 1e-6) {
		t.Fatalf("selection = (%g,%g,%g), want (0,1,1)", s.Value(a), s.Value(b), s.Value(c))
	}
}

func TestIntegerVariableRange(t *testing.T) {
	// min y s.t. y >= 2.3x, x integer in [0,5], y >= 7 - x.
	// x=3: y >= max(6.9, 4) = 6.9 ; x=2: y >= max(4.6,5)=5 ; x=5: 11.5.
	// Best x=2, y=5.
	m := NewModel("intrange")
	x := m.AddIntVar("x", 0, 5, 0)
	y := m.AddVar("y", 0, Inf, 1)
	m.MustConstrain("c1", []Term{{y, 1}, {x, -2.3}}, GE, 0)
	m.MustConstrain("c2", []Term{{y, 1}, {x, 1}}, GE, 7)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 5, 1e-6) {
		t.Fatalf("got %v obj=%g (x=%g), want 5", s.Status, s.Objective, s.Value(x))
	}
	if !approx(s.Value(x), 2, 1e-6) {
		t.Fatalf("x=%g, want 2", s.Value(x))
	}
}

func TestILPInfeasible(t *testing.T) {
	// x binary, 0.4 <= x <= 0.6 via constraints: LP feasible, ILP not.
	m := NewModel("ilpinf")
	x := m.AddBinVar("x", 1)
	m.MustConstrain("c1", []Term{{x, 1}}, GE, 0.4)
	m.MustConstrain("c2", []Term{{x, 1}}, LE, 0.6)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("got %v, want infeasible", s.Status)
	}
}

func TestLinearizeProduct(t *testing.T) {
	// y = b * d with d in [0, 10]. Maximize y - 3b with d <= 4:
	// b=1: y=4, obj 1; b=0: obj 0. Want b=1, y=4.
	m := NewModel("prod")
	m.SetSense(Maximize)
	b := m.AddBinVar("b", -3)
	d := m.AddVar("d", 0, 10, 0)
	m.MustConstrain("dcap", []Term{{d, 1}}, LE, 4)
	y := m.LinearizeProduct("y", b, d, 10)
	m.SetObj(y, 1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 1, 1e-6) {
		t.Fatalf("got %v obj=%g, want 1", s.Status, s.Objective)
	}
	if !approx(s.Value(b), 1, 1e-6) || !approx(s.Value(y), 4, 1e-6) {
		t.Fatalf("b=%g y=%g, want 1, 4", s.Value(b), s.Value(y))
	}
	// With b forced 0, y must be 0 regardless of d.
	m.SetBounds(b, 0, 0)
	s, err = m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value(y), 0, 1e-6) {
		t.Fatalf("y=%g with b=0, want 0", s.Value(y))
	}
}

func TestBoundsRestoredAfterBnB(t *testing.T) {
	m := NewModel("restore")
	x := m.AddIntVar("x", 0, 5, 1)
	m.MustConstrain("c1", []Term{{x, 1}}, GE, 1.5)
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	lb, ub := m.Bounds(x)
	if lb != 0 || ub != 5 {
		t.Fatalf("bounds after solve = [%g,%g], want [0,5]", lb, ub)
	}
}

// TestPinnedIntegersSolveAsLP: integer columns pinned (lb = ub) at an
// integer are fixed, so a model whose integer columns are all pinned
// solves as a plain LP with no branch-and-bound node, while a free
// integer column, or one pinned off the integers, still branches.
func TestPinnedIntegersSolveAsLP(t *testing.T) {
	// min x + k s.t. x >= 3n - 1.5, 2k >= 3 - 3f, k and f integer.
	build := func(nPin, kLB, kUB float64) (*Model, VarID, VarID, VarID) {
		m := NewModel("pinned")
		x := m.AddVar("x", 0, Inf, 1)
		n := m.AddIntVar("n", nPin, nPin, 0)
		k := m.AddIntVar("k", kLB, kUB, 1)
		f := m.AddIntVar("f", 0, 0, 0)
		m.MustConstrain("win", []Term{{x, 1}, {n, -3}}, GE, -1.5)
		m.MustConstrain("half", []Term{{k, 2}, {f, 3}}, GE, 3)
		return m, x, n, k
	}
	for _, c := range []struct {
		name           string
		nPin, kLB, kUB float64
		status         Status
		x, n, k        float64
		nodes          int
	}{
		{name: "all pinned", nPin: 2, kLB: 2, kUB: 2, status: Optimal, x: 4.5, n: 2, k: 2, nodes: 0},
		{name: "one free", nPin: 2, kLB: 0, kUB: 5, status: Optimal, x: 4.5, n: 2, k: 2, nodes: 3},
		{name: "pinned off the integers", nPin: 2.5, kLB: 2, kUB: 2, status: Infeasible, nodes: 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, x, n, k := build(c.nPin, c.kLB, c.kUB)
			s, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if s.Status != c.status || s.Stats.Nodes != c.nodes {
				t.Fatalf("got %v with %d nodes, want %v with %d", s.Status, s.Stats.Nodes, c.status, c.nodes)
			}
			if c.status == Optimal && (s.Value(x) != c.x || s.Value(n) != c.n || s.Value(k) != c.k) {
				t.Fatalf("(x, n, k) = (%g, %g, %g), want (%g, %g, %g)", s.Value(x), s.Value(n), s.Value(k), c.x, c.n, c.k)
			}
		})
	}
}

// TestSetBoundsResolvesLikeFreshModel: after SetBounds tightens, pins
// or releases columns, a re-solve of the same model, cold or warm from
// the basis of an earlier solve, gives exactly what a freshly built
// model with those bounds gives. y also carries a singleton row that
// presolve folds into its bounds (pinning y above it crosses them), and
// the integer column k is branched on until it is pinned. SetBounds
// updates the compiled form in place: the model never recompiles.
func TestSetBoundsResolvesLikeFreshModel(t *testing.T) {
	type bounds struct{ x, y, z, k [2]float64 }
	// max 3x + 2y + z + k/2 s.t. x + y + z + k <= 10, y <= 4: a unique
	// optimum under every bounds below.
	build := func(b bounds) (*Model, [4]VarID) {
		m := NewModel("rebound")
		m.SetSense(Maximize)
		v := [4]VarID{
			m.AddVar("x", b.x[0], b.x[1], 3),
			m.AddVar("y", b.y[0], b.y[1], 2),
			m.AddVar("z", b.z[0], b.z[1], 1),
			m.AddIntVar("k", b.k[0], b.k[1], 0.5),
		}
		m.MustConstrain("cap", []Term{{v[0], 1}, {v[1], 1}, {v[2], 1}, {v[3], 1}}, LE, 10)
		m.MustConstrain("ycap", []Term{{v[1], 2}}, LE, 8)
		return m, v
	}
	same := func(label string, got, want *Solution) {
		t.Helper()
		if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s: %v obj %g, fresh model %v obj %g", label, got.Status, got.Objective, want.Status, want.Objective)
		}
		for j := range want.Values {
			if math.Float64bits(got.Values[j]) != math.Float64bits(want.Values[j]) {
				t.Fatalf("%s: values %v, fresh model %v", label, got.Values, want.Values)
			}
		}
	}
	b := bounds{x: [2]float64{0, 4}, y: [2]float64{0, 5}, z: [2]float64{0, 1}, k: [2]float64{0, 3}}
	m, v := build(b)
	first, err := m.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("first solve: %v, %v", first.Status, err)
	}
	compiled := m.prob
	for _, step := range []struct {
		name     string
		set      func(*bounds)
		branched bool // k is an intVar
	}{
		{"tighten x", func(b *bounds) { b.x[1] = 2 }, true},
		{"pin y", func(b *bounds) { b.y = [2]float64{3, 3} }, true},
		{"release z", func(b *bounds) { b.z[1] = Inf }, true},
		{"pin k", func(b *bounds) { b.k = [2]float64{2, 2} }, false},
		{"pin y above its row", func(b *bounds) { b.y = [2]float64{5, 5} }, false},
		{"release y and k", func(b *bounds) { b.y, b.k = [2]float64{0, 5}, [2]float64{0, 3} }, true},
	} {
		step.set(&b)
		for i, lu := range [][2]float64{b.x, b.y, b.z, b.k} {
			m.SetBounds(v[i], lu[0], lu[1])
		}
		fresh, _ := build(b)
		want, err := fresh.Solve()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		same(step.name+", cold", cold, want)
		warm, err := m.SolveOpts(context.Background(), SolveOptions{Warm: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		same(step.name+", warm", warm, want)
		if m.prob != compiled {
			t.Fatalf("%s: SetBounds recompiled the model", step.name)
		}
		if got := len(m.prob.intVars) == 1; got != step.branched {
			t.Fatalf("%s: k listed for branching %v, want %v", step.name, got, step.branched)
		}
		ref, err := fresh.compile()
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.lb {
			if math.Float64bits(m.prob.lb[j]) != math.Float64bits(ref.lb[j]) || math.Float64bits(m.prob.ub[j]) != math.Float64bits(ref.ub[j]) {
				t.Fatalf("%s: column %d bounds [%g, %g], fresh compile [%g, %g]", step.name, j, m.prob.lb[j], m.prob.ub[j], ref.lb[j], ref.ub[j])
			}
		}
		if m.prob.infeasible() != ref.infeasible() {
			t.Fatalf("%s: presolve infeasible %v, fresh compile %v", step.name, m.prob.infeasible(), ref.infeasible())
		}
	}
}

func TestAddConstraintValidation(t *testing.T) {
	m := NewModel("val")
	if err := m.AddConstraint("bad", []Term{{VarID(3), 1}}, LE, 0); err == nil {
		t.Fatal("unknown variable accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustConstrain should panic on bad input")
		}
	}()
	m.MustConstrain("bad", []Term{{VarID(3), 1}}, LE, 0)
}

func TestMergeTerms(t *testing.T) {
	m := NewModel("merge")
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 1)
	m.MustConstrain("c", []Term{{x, 1}, {x, 2}, {y, 0}, {x, -3}}, LE, 5)
	if got := len(m.cons[0].terms); got != 0 {
		t.Fatalf("merged terms = %d, want 0 (all cancel)", got)
	}
}

func TestRelString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" || Rel(9).String() != "?" {
		t.Fatal("Rel.String wrong")
	}
}

func TestStatusString(t *testing.T) {
	for s, w := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit", Status(9): "unknown",
	} {
		if s.String() != w {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), w)
		}
	}
}

// Property: solutions returned as Optimal satisfy every constraint and
// all variable bounds, on random feasible-by-construction LPs.
func TestPropertySolutionFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel("prop")
		nv := 2 + rng.Intn(6)
		vars := make([]VarID, nv)
		base := make([]float64, nv) // a known feasible point
		for j := 0; j < nv; j++ {
			lb := float64(rng.Intn(21) - 10)
			ub := lb + float64(1+rng.Intn(10))
			base[j] = lb + (ub-lb)*rng.Float64()
			vars[j] = m.AddVar("x", lb, ub, float64(rng.Intn(11)-5))
		}
		nc := 1 + rng.Intn(8)
		type row struct {
			terms []Term
			rel   Rel
			rhs   float64
		}
		rows := make([]row, nc)
		for i := 0; i < nc; i++ {
			var terms []Term
			lhs := 0.0
			for j := 0; j < nv; j++ {
				if rng.Intn(2) == 0 {
					cf := float64(rng.Intn(9) - 4)
					terms = append(terms, Term{vars[j], cf})
					lhs += cf * base[j]
				}
			}
			// Choose rhs so the base point satisfies the row.
			switch rng.Intn(2) {
			case 0:
				rows[i] = row{terms, LE, lhs + rng.Float64()*5}
			default:
				rows[i] = row{terms, GE, lhs - rng.Float64()*5}
			}
			m.MustConstrain("c", rows[i].terms, rows[i].rel, rows[i].rhs)
		}
		s, err := m.Solve()
		if err != nil || s.Status != Optimal {
			// Feasible by construction, so anything else is a failure.
			return false
		}
		for j := 0; j < nv; j++ {
			lb, ub := m.Bounds(vars[j])
			v := s.Value(vars[j])
			if v < lb-1e-6 || v > ub+1e-6 {
				return false
			}
		}
		for _, r := range rows {
			lhs := 0.0
			for _, tm := range r.terms {
				lhs += tm.Coeff * s.Value(tm.Var)
			}
			if r.rel == LE && lhs > r.rhs+1e-6 {
				return false
			}
			if r.rel == GE && lhs < r.rhs-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: on random small ILPs, branch-and-bound matches brute force.
func TestPropertyBnBMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel("bf")
		m.SetSense(Maximize)
		n := 2 + rng.Intn(4)
		vars := make([]VarID, n)
		objs := make([]float64, n)
		ws := make([]float64, n)
		for j := 0; j < n; j++ {
			objs[j] = float64(rng.Intn(10) + 1)
			ws[j] = float64(rng.Intn(5) + 1)
			vars[j] = m.AddBinVar("b", objs[j])
		}
		cap := float64(rng.Intn(10) + 1)
		terms := make([]Term, n)
		for j := range terms {
			terms[j] = Term{vars[j], ws[j]}
		}
		m.MustConstrain("cap", terms, LE, cap)
		s, err := m.Solve()
		if err != nil || s.Status != Optimal {
			return false
		}
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					w += ws[j]
					v += objs[j]
				}
			}
			if w <= cap && v > best {
				best = v
			}
		}
		return approx(s.Objective, best, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
