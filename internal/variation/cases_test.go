package variation

import (
	"context"
	"reflect"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/netlist"
)

// testLib mirrors the core test library (fixed-delay cells W1..W9) with
// sigma annotations so local variation has per-cell spreads to sample.
func testLib(t testing.TB) *celllib.Library {
	t.Helper()
	l := celllib.Uniform(4,
		celllib.SeqTiming{Tcq: 3, Tsu: 1, Th: 1, Area: 4, Sigma: 0.03},
		celllib.SeqTiming{Tcq: 2, Tdq: 1, Tsu: 1, Th: 1, Area: 3, Sigma: 0.03})
	for d := 1; d <= 9; d++ {
		name := "W" + string(rune('0'+d))
		c, err := l.AddCell(name, netlist.KindBuf, []celllib.Option{{Delay: float64(d), Area: 1}})
		if err != nil {
			t.Fatal(err)
		}
		c.Sigma = 0.04
	}
	return l
}

// wavePipe is the unbalanced pipeline from the core tests: classic
// minimum period 21, VirtualSync-optimizable to ~12 and below.
func wavePipe(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := netlist.New("wavepipe")
	in := c.MustAdd("in", netlist.KindInput)
	f1 := c.MustAdd("F1", netlist.KindDFF, in.ID)
	g1 := c.MustAdd("g1", netlist.KindBuf, f1.ID)
	g1.Cell = "W5"
	g2 := c.MustAdd("g2", netlist.KindBuf, g1.ID)
	g2.Cell = "W6"
	g3 := c.MustAdd("g3", netlist.KindBuf, g2.ID)
	g3.Cell = "W6"
	f2 := c.MustAdd("F2", netlist.KindDFF, g3.ID)
	g5 := c.MustAdd("g5", netlist.KindBuf, f1.ID)
	g5.Cell = "W2"
	g4 := c.MustAdd("g4", netlist.KindAnd, f2.ID, g5.ID)
	g4.Cell = "W4"
	f3 := c.MustAdd("F3", netlist.KindDFF, g4.ID)
	c.MustAdd("out", netlist.KindOutput, f3.ID)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func optimized(t testing.TB, c *netlist.Circuit, lib *celllib.Library) *core.Result {
	t.Helper()
	res, err := core.OptimizeObserved(context.Background(), c, lib, core.DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSTACaseZeroSigma(t *testing.T) {
	c := wavePipe(t)
	lib := testLib(t)
	sc, err := NewSTACase(c, lib, Model{}) // no variation at all
	if err != nil {
		t.Fatal(err)
	}
	// Classic minimum period is 21: fail just below, pass at and above.
	res, err := Run(context.Background(), Config{
		Samples: 32, Seed: 5, Periods: []float64{20.9, 21, 25},
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield(0) != 0 || res.Yield(1) != 1 || res.Yield(2) != 1 {
		t.Fatalf("zero-sigma STA yields = %g %g %g, want 0 1 1",
			res.Yield(0), res.Yield(1), res.Yield(2))
	}
	if res.FirstFail[0]["setup"] != 32 {
		t.Fatalf("first-fail at T=20.9: %v, want all setup", res.FirstFail[0])
	}
}

func TestSTACaseVariationLowersYield(t *testing.T) {
	c := wavePipe(t)
	lib := testLib(t)
	sc, err := NewSTACase(c, lib, Model{GlobalSigma: 0.05, LocalScale: 1, DefaultSigma: 0.05, MinFactor: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// At the exact nominal minimum period roughly half the samples fail.
	res, err := Run(context.Background(), Config{
		Samples: 400, Seed: 5, Periods: []float64{21},
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if y := res.Yield(0); y <= 0.1 || y >= 0.9 {
		t.Fatalf("yield at nominal minimum period = %g, want mid-range", y)
	}
}

func TestWaveCaseZeroSigma(t *testing.T) {
	lib := testLib(t)
	res := optimized(t, wavePipe(t), lib)
	wc, err := NewWaveCase(res, Model{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(context.Background(), Config{
		Samples: 16, Seed: 9, Periods: []float64{res.Period},
	}, wc)
	if err != nil {
		t.Fatal(err)
	}
	if run.Yield(0) != 1 {
		t.Fatalf("nominal sample fails at the optimized period: yield %g, fails %v",
			run.Yield(0), run.FirstFail[0])
	}
}

func TestWaveCaseHugeSigmaFails(t *testing.T) {
	lib := testLib(t)
	res := optimized(t, wavePipe(t), lib)
	wc, err := NewWaveCase(res, Model{GlobalSigma: 0.3, LocalScale: 1, DefaultSigma: 0.3, MinFactor: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(context.Background(), Config{
		Samples: 200, Seed: 9, Periods: []float64{res.Period},
	}, wc)
	if err != nil {
		t.Fatal(err)
	}
	if run.Yield(0) >= 1 {
		t.Fatal("30% sigma cannot give full yield at the optimized period")
	}
	if len(run.FailModes(0)) == 0 {
		t.Fatal("failing samples recorded no first-fail constraint")
	}
}

func TestDefaultPeriods(t *testing.T) {
	ps := DefaultPeriods(12, 23)
	if len(ps) < 4 {
		t.Fatalf("too few periods: %v", ps)
	}
	has12, has23 := false, false
	for i, p := range ps {
		if i > 0 && ps[i-1] >= p {
			t.Fatalf("periods not strictly ascending: %v", ps)
		}
		if p == 12 {
			has12 = true
		}
		if p == 23 {
			has23 = true
		}
	}
	if !has12 || !has23 {
		t.Fatalf("sweep misses the endpoints exactly: %v", ps)
	}
	// Swapped arguments normalize.
	if !reflect.DeepEqual(DefaultPeriods(23, 12), ps) {
		t.Fatal("DefaultPeriods not symmetric in its arguments")
	}
}

func TestCompareDeterministicAcrossWorkers(t *testing.T) {
	c := wavePipe(t)
	lib := testLib(t)
	res := optimized(t, c, lib)
	cfg := Config{Samples: 120, Seed: 77, Model: DefaultModel()}

	cfg.Workers = 1
	one, err := Compare(context.Background(), c, res, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 6
	six, err := Compare(context.Background(), c, res, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(one.Base, six.Base) || !sameOutcome(one.Opt, six.Opt) {
		t.Fatal("worker count changed Compare results")
	}

	// The paper's story: at the optimized period the baseline circuit is
	// hopeless and the VirtualSync circuit mostly works.
	if y := one.Base.YieldAt(one.TOpt); y != 0 {
		t.Fatalf("baseline yield at optimized period = %g, want 0", y)
	}
	if y := one.Opt.YieldAt(one.TOpt); y < 0.5 {
		t.Fatalf("optimized yield at its own period = %g, want >= 0.5", y)
	}
	if y := one.Base.YieldAt(one.TBase); y < 0.8 {
		t.Fatalf("baseline yield at guard-banded baseline period = %g, want >= 0.8", y)
	}
}
