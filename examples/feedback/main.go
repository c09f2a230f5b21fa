// Feedback: optimize a circuit whose critical path runs around a register
// feedback loop (an accumulator-style structure).
//
// Removing the loop's flip-flop exposes a combinational cycle, so
// VirtualSync *must* re-insert a sequential delay unit — possibly at a
// shifted clock phase — to keep the loop synchronized (paper Section 4.1:
// "signals along combinational loops should also be blocked"). This
// example shows the inserted units and checks cycle-accurate equivalence.
//
// Run with: go run ./examples/feedback
package main

import (
	"fmt"
	"log"
	"strings"

	"virtualsync"
)

// An accumulator: acc' = (acc XOR in) with a deep correction network, plus
// a side pipeline that reads the accumulator.
const benchSrc = `
INPUT(d)
INPUT(en)
OUTPUT(q)
din  = DFF(d)
enr  = DFF(en)
# feedback loop: acc -> correction network -> acc
t0  = XOR(din, acc)
t1  = AND(t0, enr)
t2  = XOR(t1, acc)
t3  = NAND(t2, t0)
t4  = XOR(t3, t1)
t5  = OR(t4, t2)
t6  = XOR(t5, t3)
acc = DFF(t6)
# side pipeline reading the accumulator
u0 = NOT(acc)
u1 = AND(u0, din)
q  = DFF(u1)
`

func main() {
	lib := virtualsync.DefaultLibrary()
	circuit, err := virtualsync.LoadCircuit(strings.NewReader(benchSrc), "feedback")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := circuit.TopoOrder(); err != nil {
		log.Fatalf("input circuit: %v", err)
	}

	base, err := virtualsync.RetimeAndSize(circuit, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retiming&sizing baseline: %.0f ps (loop-bound: retiming cannot touch the cycle)\n", base.Period)

	res, err := virtualsync.Optimize(base.Circuit, lib, virtualsync.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VirtualSync: %.1f ps -> %.1f ps (%.1f%%)\n",
		res.BaselinePeriod, res.Period, res.PeriodReductionPct())
	fmt.Printf("sequential delay units inserted: %d flip-flops, %d latches\n",
		res.NumFFUnits, res.NumLatchUnits)
	if res.NumFFUnits+res.NumLatchUnits == 0 {
		log.Fatal("expected at least one sequential unit in the feedback loop")
	}
	if _, err := res.Circuit.TopoOrder(); err != nil {
		log.Fatalf("optimized circuit left a combinational loop open: %v", err)
	}

	// Show the inserted units and their clock phases.
	for _, ff := range res.Circuit.FlipFlops() {
		if strings.HasPrefix(ff.Name, "vs_") {
			fmt.Printf("  unit %-10s phase %.2fT\n", ff.Name, ff.Phase)
		}
	}
	for _, lt := range res.Circuit.Latches() {
		fmt.Printf("  unit %-10s phase %.2fT (latch)\n", lt.Name, lt.Phase)
	}

	ms, err := virtualsync.VerifyEquivalence(base.Circuit, res.Circuit, lib,
		res.BaselinePeriod, res.Period, 120, 8, 99)
	if err != nil {
		log.Fatal(err)
	}
	if len(ms) != 0 {
		log.Fatalf("functional mismatch: %v", ms[0])
	}
	fmt.Println("loop state tracked exactly: 120-cycle equivalence OK")
}
