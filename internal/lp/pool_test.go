package lp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// raceEnabled is set by race_test.go under the race detector, where
// sync.Pool drops a random share of the solvers put back.
var raceEnabled bool

// cancelAfter is a context whose Err reports cancellation from its
// checks+1-th call on, so a solve is canceled at a fixed iteration.
type cancelAfter struct {
	context.Context
	checks int
}

func (c *cancelAfter) Err() error {
	c.checks--
	if c.checks < 0 {
		return context.Canceled
	}
	return nil
}

// sameSolve reports where two outcomes of one solve differ: error text,
// Status, the bits of Objective and Values, Basis or Stats.
func sameSolve(a, b *Solution, aerr, berr error) string {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return "error"
	}
	if (a == nil) != (b == nil) {
		return "solution"
	}
	if a == nil {
		return ""
	}
	switch {
	case a.Status != b.Status:
		return "status"
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective):
		return "objective"
	case !slices.EqualFunc(a.Values, b.Values, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}):
		return "values"
	case a.Stats != b.Stats:
		return "stats"
	case (a.Basis == nil) != (b.Basis == nil):
		return "basis"
	case a.Basis != nil && (a.Basis.m != b.Basis.m || a.Basis.n != b.Basis.n || !slices.Equal(a.Basis.stat, b.Basis.stat)):
		return "basis"
	}
	return ""
}

// TestPooledSolveMatchesFresh interleaves solves that grow and shrink the
// pooled solvers' m and n, with an infeasible LP, a branch-and-bound MIP,
// a warm start and a solve canceled mid-phase between them, and requires
// every repeated solve, in another order, to equal its first one exactly:
// whatever a pooled solver last solved must not leak into the next.
func TestPooledSolveMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	small, _ := timingLP(rng, 12)
	large, _ := timingLP(rand.New(rand.NewSource(8)), 260)
	random := randomLP(rng)
	canceled, _ := timingLP(rng, 400)

	infeasible := NewModel("infeasible")
	x := infeasible.AddVar("x", 0, 10, 1)
	y := infeasible.AddVar("y", 0, 10, 1)
	infeasible.MustConstrain("lo", []Term{{x, 1}, {y, 1}}, GE, 12)
	infeasible.MustConstrain("hi", []Term{{x, 1}, {y, -1}}, GE, 9)
	infeasible.MustConstrain("cap", []Term{{x, 2}, {y, 1}}, LE, 11)

	mip := NewModel("mip")
	prev := mip.AddVar("s0", 0, 0, 0)
	for i := 1; i < 14; i++ {
		s := mip.AddVar("s", -Inf, Inf, 0)
		pad := mip.AddVar("p", 0, 8, 1+0.13*float64(i%7))
		mip.MustConstrain("c", []Term{{s, 1}, {prev, -1}, {pad, 1}}, GE, 4+float64((i*5)%6))
		mip.MustConstrain("u", []Term{{s, 1}}, LE, float64(6*i+5))
		bin := mip.AddBinVar("b", 1+0.21*float64(i%5))
		mip.MustConstrain("link", []Term{{pad, 1}, {bin, -8}}, LE, 0.5+0.1*float64(i%11))
		prev = s
	}

	// The warm case re-solves the large model's structure under tighter
	// pads from the large model's own optimal basis.
	seed, err := large.Solve(context.Background(), nil)
	if err != nil || seed.Status != Optimal {
		t.Fatalf("seed solve: %v %v", seed, err)
	}
	tightened, pads := timingLP(rand.New(rand.NewSource(8)), 260)
	for _, v := range pads[:len(pads)/3] {
		tightened.SetBounds(v, 0, 1)
	}

	bg := context.Background()
	cold := func(m *Model) func() (*Solution, error) {
		return func() (*Solution, error) { return m.Solve(bg, nil) }
	}
	cases := []struct {
		name  string
		solve func() (*Solution, error)
	}{
		{"small", cold(small)},
		{"large", cold(large)},
		{"random", cold(random)},
		{"infeasible", cold(infeasible)},
		{"mip", cold(mip)},
		{"warm", func() (*Solution, error) { return tightened.Solve(bg, seed.Basis) }},
		{"canceled", func() (*Solution, error) {
			// solveLP, unlike Solve, returns the stats of a canceled
			// solve, which show the iteration it stopped at.
			p, err := canceled.compile()
			if err != nil {
				return nil, err
			}
			res, err := solveLP(&cancelAfter{Context: bg, checks: 2}, p, p.lb, p.ub, nil)
			return res.toSolution(), err
		}},
	}
	type outcome struct {
		sol *Solution
		err error
	}
	first := make([]outcome, len(cases))
	for i, c := range cases {
		sol, err := c.solve()
		first[i] = outcome{sol, err}
	}
	if first[3].sol.Status != Infeasible || first[4].sol.Stats.Nodes < 2 ||
		first[5].sol.Status != Optimal || first[5].sol.Stats.WarmStarts != 1 ||
		first[5].sol.Stats.Pivots() == 0 || first[6].err != errCanceled {
		t.Fatalf("cases do not cover what they are named for: infeasible %v, mip nodes %d, warm %+v, canceled %v",
			first[3].sol.Status, first[4].sol.Stats.Nodes, first[5].sol.Stats, first[6].err)
	}
	for pass := 0; pass < 3; pass++ {
		for _, i := range rng.Perm(len(cases)) {
			sol, err := cases[i].solve()
			if d := sameSolve(first[i].sol, sol, first[i].err, err); d != "" {
				t.Fatalf("pass %d, %s: %s differs from the first solve", pass, cases[i].name, d)
			}
		}
	}
}

// TestWarmResolveAllocs bounds the allocations of a warm re-solve that
// pivots: with the solver and its kernel pooled, only the returned
// values, basis and result are allocated.
func TestWarmResolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled solvers at random under the race detector")
	}
	m, pads := timingLP(rand.New(rand.NewSource(3)), 200)
	seed, err := m.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pads[:60] {
		m.SetBounds(v, 0, 3)
	}
	sol, err := m.Solve(context.Background(), seed.Basis)
	if err != nil || sol.Status != Optimal || sol.Stats.Pivots() == 0 {
		t.Fatalf("warm re-solve: %v %v (want an optimal solve that pivots)", sol, err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := m.Solve(context.Background(), seed.Basis); err != nil {
			t.Error(err)
		}
	})
	if avg > 8 {
		t.Fatalf("warm re-solve allocates %.1f objects, want at most 8", avg)
	}
}
