package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"virtualsync/internal/netlist"
)

func TestOptimizeAtPeriodWavePipe(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	// Baseline (margined) is 21*1.1 = 23.1. Try a strong reduction: T=10.
	res, err := OptimizeAtPeriod(context.Background(), c, lib, 10, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("T=10 should be feasible for the wave pipeline")
	}
	if vs := res.Plan.Validate(); len(vs) > 0 {
		t.Fatalf("validator rejects plan: %v", vs)
	}
	if res.Circuit == nil {
		t.Fatal("no circuit materialized")
	}
	if err := res.Circuit.Validate(); err != nil {
		t.Fatalf("optimized netlist invalid: %v", err)
	}
	// The two pipeline flip-flops are gone.
	if res.Circuit.ByName("F1") != nil || res.Circuit.ByName("F2") != nil {
		t.Fatal("selected flip-flops still present")
	}
	if res.Circuit.ByName("F3") == nil {
		t.Fatal("boundary flip-flop F3 disappeared")
	}
	// The fast path must have been padded.
	if res.NumBuffers == 0 && res.NumFFUnits == 0 && res.NumLatchUnits == 0 {
		t.Fatal("no delay units inserted although the fast path needs padding")
	}
}

func TestOptimizeAtPeriodInfeasible(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	// T=5 is below the wave bound (23.1 + 1.1)/3 = 8.07.
	res, err := OptimizeAtPeriod(context.Background(), c, lib, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("T=5 should be infeasible, got a plan with %d buffers", res.NumBuffers)
	}
}

func TestOptimizeWavePipeSearch(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	res, err := OptimizeObserved(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period >= res.BaselinePeriod {
		t.Fatalf("no period improvement: %g vs baseline %g", res.Period, res.BaselinePeriod)
	}
	// The wave bound is (23.1+1.1)/3 = 8.07; the search should get close.
	if res.Period > 12 {
		t.Fatalf("period %g, want <= 12 (bound 8.07)", res.Period)
	}
	if res.PeriodReductionPct() < 40 {
		t.Fatalf("reduction %.1f%%, want >= 40%%", res.PeriodReductionPct())
	}
	if vs := res.Plan.Validate(); len(vs) > 0 {
		t.Fatalf("final plan invalid: %v", vs)
	}
}

func TestOptimizeCtxCancelled(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeObserved(ctx, c, lib, DefaultOptions(), 0.02, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	// An ample deadline must not disturb the result.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	res, err := OptimizeObserved(ctx2, c, lib, DefaultOptions(), 0.02, nil)
	if err != nil || res == nil {
		t.Fatalf("search under ample deadline failed: %v %v", res, err)
	}
}

func TestOptimizeLoopNeedsSequentialUnit(t *testing.T) {
	c := loopCircuit(t)
	lib := paperLib(t)
	res, err := OptimizeObserved(context.Background(), c, lib, DefaultOptions(), 0.005, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The exposed combinational loop must contain a sequential unit.
	if res.NumFFUnits+res.NumLatchUnits == 0 {
		t.Fatal("loop circuit optimized without any sequential delay unit")
	}
	if vs := res.Plan.Validate(); len(vs) > 0 {
		t.Fatalf("final plan invalid: %v", vs)
	}
	// The optimized netlist must not contain a combinational loop.
	if loops := res.Circuit.CombLoops(); len(loops) != 0 {
		t.Fatalf("optimized circuit has combinational loops: %v", loops)
	}
}

func TestPlanCounters(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	res, err := OptimizeAtPeriod(context.Background(), c, lib, 10, DefaultOptions())
	if err != nil || res == nil {
		t.Fatalf("optimize: %v, %v", res, err)
	}
	p := res.Plan
	ff, lt := p.NumUnits()
	if ff != res.NumFFUnits || lt != res.NumLatchUnits {
		t.Fatal("unit counters inconsistent")
	}
	if p.NumBuffers() != res.NumBuffers {
		t.Fatal("buffer counter inconsistent")
	}
	if p.InsertedArea() < 0 {
		t.Fatal("negative inserted area")
	}
	if res.PeriodReductionPct() <= 0 {
		t.Fatalf("reduction = %g", res.PeriodReductionPct())
	}
}

func TestOptimizedNetlistStructure(t *testing.T) {
	c := loopCircuit(t)
	lib := paperLib(t)
	res, err := OptimizeObserved(context.Background(), c, lib, DefaultOptions(), 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every inserted unit appears in the netlist with its phase.
	nFF := 0
	res.Circuit.Live(func(n *netlist.Node) {
		if n.Kind == netlist.KindDFF && len(n.Name) > 3 && n.Name[:3] == "vs_" {
			nFF++
		}
	})
	nLatch := len(res.Circuit.Latches())
	if nFF != res.NumFFUnits || nLatch != res.NumLatchUnits {
		t.Fatalf("netlist units (%d ff, %d latch) != plan (%d, %d)",
			nFF, nLatch, res.NumFFUnits, res.NumLatchUnits)
	}
}
