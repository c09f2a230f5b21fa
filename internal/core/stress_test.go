package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
	"virtualsync/internal/sim"
	"virtualsync/internal/sizing"
)

// randPipe builds a small random 2-stage circuit with reconvergence, used
// by the randomized full-flow equivalence stress test.
func randPipe(seed int64) *netlist.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := netlist.New(fmt.Sprintf("rp%d", seed))
	nIn := 2 + rng.Intn(2)
	var pis []netlist.NodeID
	for i := 0; i < nIn; i++ {
		pis = append(pis, c.MustAdd(fmt.Sprintf("i%d", i), netlist.KindInput).ID)
	}
	var regs []netlist.NodeID
	for i, pi := range pis {
		regs = append(regs, c.MustAdd(fmt.Sprintf("r%d", i), netlist.KindDFF, pi).ID)
	}
	kinds := []netlist.Kind{netlist.KindAnd, netlist.KindNand, netlist.KindOr,
		netlist.KindNor, netlist.KindXor, netlist.KindNot, netlist.KindBuf}
	pool := append([]netlist.NodeID(nil), regs...)
	nG1 := 3 + rng.Intn(6)
	for i := 0; i < nG1; i++ {
		k := kinds[rng.Intn(len(kinds))]
		a := pool[rng.Intn(len(pool))]
		var n *netlist.Node
		if k.MaxFanins() == 1 {
			n = c.MustAdd(fmt.Sprintf("a%d", i), k, a)
		} else {
			n = c.MustAdd(fmt.Sprintf("a%d", i), k, a, pool[rng.Intn(len(pool))])
		}
		pool = append(pool, n.ID)
	}
	var mids []netlist.NodeID
	nMid := 1 + rng.Intn(2)
	for i := 0; i < nMid; i++ {
		mids = append(mids, c.MustAdd(fmt.Sprintf("m%d", i), netlist.KindDFF, pool[len(pool)-1-i]).ID)
	}
	pool2 := append(append([]netlist.NodeID(nil), mids...), regs[0])
	nG2 := 2 + rng.Intn(5)
	for i := 0; i < nG2; i++ {
		k := kinds[rng.Intn(len(kinds))]
		a := pool2[rng.Intn(len(pool2))]
		var n *netlist.Node
		if k.MaxFanins() == 1 {
			n = c.MustAdd(fmt.Sprintf("b%d", i), k, a)
		} else {
			n = c.MustAdd(fmt.Sprintf("b%d", i), k, a, pool2[rng.Intn(len(pool2))])
		}
		pool2 = append(pool2, n.ID)
	}
	fo := c.MustAdd("fo", netlist.KindDFF, pool2[len(pool2)-1])
	c.MustAdd("q", netlist.KindOutput, fo.ID)
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// TestRandomFullFlowEquivalence runs the complete pipeline — sizing,
// retiming, VirtualSync, realization — on a population of random circuits
// and requires exact cycle-level functional equivalence on every one.
func TestRandomFullFlowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow stress skipped in -short mode")
	}
	lib := celllib.Default()
	nSeeds := int64(30)
	for seed := int64(1); seed <= nSeeds; seed++ {
		c := randPipe(seed)
		if _, err := sizing.Size(c, lib); err != nil {
			t.Fatalf("seed %d: sizing: %v", seed, err)
		}
		base, _, err := retime.Retime(c, lib)
		if err != nil {
			t.Fatalf("seed %d: retime: %v", seed, err)
		}
		if _, err := sizing.Size(base, lib); err != nil {
			t.Fatalf("seed %d: resize: %v", seed, err)
		}
		res, err := OptimizeObserved(context.Background(), base, lib, DefaultOptions(), 0.01, nil)
		if err != nil {
			continue // e.g. circuit too trivial for selection
		}
		if res.Period > res.BaselinePeriod+1e-9 {
			t.Errorf("seed %d: period regressed %.2f -> %.2f", seed, res.BaselinePeriod, res.Period)
		}
		ms, err := sim.VerifyEquivalenceStim(base, res.Circuit, lib, res.BaselinePeriod, res.Period,
			8, sim.RandomStimulus(base, 50, seed*31+1))
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		if len(ms) > 0 {
			t.Errorf("seed %d: %d functional mismatches, first %v", seed, len(ms), ms[0])
		}
	}
}
