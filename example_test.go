package virtualsync_test

import (
	"fmt"
	"log"
	"os"
	"strings"

	"virtualsync"
	"virtualsync/internal/gen"
)

// This example reproduces the paper's Fig. 1 motivating example.
//
// The circuit has four flip-flop stages with a 17-delay critical path
// between F2 and F3 (minimum period 21 with tcq=3, tsu=1). Sizing,
// retiming and VirtualSync progressively lower the period — VirtualSync
// goes below the sequential limit by letting the critical logic wave
// propagate through removed flip-flop stages.
func Example_quickstart() {
	lib := gen.Fig1Library()
	circuit := gen.Fig1()

	orig, err := virtualsync.MinPeriod(circuit, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original circuit:       T = %5.2f   (paper: 21)\n", orig)

	base, err := virtualsync.RetimeAndSize(circuit, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after retiming&sizing:  T = %5.2f   (paper: 11)\n", base.Period)

	res, err := virtualsync.Optimize(base.Circuit, lib, virtualsync.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after VirtualSync:      T = %5.2f   (paper: 8.5; %.1f%% below the %.2f baseline)\n",
		res.Period, res.PeriodReductionPct(), res.BaselinePeriod)
	fmt.Printf("inserted hardware: %d FF units, %d latch units, %d buffers\n",
		res.NumFFUnits, res.NumLatchUnits, res.NumBuffers)

	// Prove the optimized circuit still computes the same function.
	ms, err := virtualsync.VerifyEquivalence(base.Circuit, res.Circuit, lib,
		res.BaselinePeriod, res.Period, 64, 6, 2024)
	if err != nil {
		log.Fatal(err)
	}
	if len(ms) != 0 {
		log.Fatalf("functional mismatch: %v", ms[0])
	}
	fmt.Println("functional equivalence: OK over 64 cycles of random stimulus")

	fmt.Println("\noptimized netlist:")
	if err := virtualsync.WriteCircuit(os.Stdout, res.Circuit); err != nil {
		log.Fatal(err)
	}
	// Output:
	// original circuit:       T = 21.00   (paper: 21)
	// after retiming&sizing:  T =  8.00   (paper: 11)
	// after VirtualSync:      T =  8.10   (paper: 8.5; 8.0% below the 8.80 baseline)
	// inserted hardware: 0 FF units, 1 latch units, 2 buffers
	// functional equivalence: OK over 64 cycles of random stimulus
	//
	// optimized netlist:
	// # circuit fig1_retimed_vsync
	// # 2 inputs, 1 outputs, 7 gates, 2 DFFs, 1 latches
	// INPUT(a)
	// INPUT(b)
	// OUTPUT(g4)
	// rff_g5_1 = DFF(g5)
	// rff_g5_2 = DFF(rff_g5_1)
	// vs_lt_2 = LATCH(gx)
	// g5 = BUF(a) [S3]
	// g1 = BUF(b) [S5]
	// vs_buf_0_0 = BUF(g1)
	// g2 = BUF(vs_buf_0_0) [S6]
	// gx = XOR(g2, vs_lt_2) [S6]
	// vs_buf_3_0 = BUF(gx)
	// g4 = AND(vs_buf_3_0, rff_g5_2) [S4]
}

// wavePipelineBench is a 4-bit compress/parity datapath with one deep
// reduction stage and one shallow output stage.
const wavePipelineBench = `
INPUT(d0)
INPUT(d1)
INPUT(d2)
INPUT(d3)
OUTPUT(q)
# input registers
r0 = DFF(d0)
r1 = DFF(d1)
r2 = DFF(d2)
r3 = DFF(d3)
# stage 1: deep xor/majority reduction tree
x0 = XOR(r0, r1)
x1 = XOR(r2, r3)
m0 = AND(r0, r2)
m1 = OR(r1, r3)
y0 = XOR(x0, m0)
y1 = XOR(x1, m1)
y2 = NAND(y0, x1)
y3 = NOR(y1, x0)
z0 = XOR(y2, y3)
z1 = AND(y2, y1)
z2 = OR(z0, z1)
z3 = XOR(z2, y0)
p  = DFF(z3)
p2 = DFF(z0)
# stage 2: shallow output logic
s0 = NOT(p)
s1 = AND(s0, p2)
q  = DFF(s1)
`

// This example optimizes an unbalanced arithmetic-style pipeline, the
// scenario the paper's introduction motivates: a datapath whose stage
// delays differ strongly, so the clock is limited by the slowest stage
// while the fast stage idles. VirtualSync removes the interior pipeline
// registers, lets the logic wave spread over multiple cycles, pads the
// fast paths, and pushes the clock below the retiming limit.
//
// The pipeline is parsed from the toolkit's .bench dialect, and the
// result is verified by event-driven simulation.
func Example_wavePipeline() {
	lib := virtualsync.DefaultLibrary()
	circuit, err := virtualsync.LoadCircuit(strings.NewReader(wavePipelineBench), "wavepipe")
	if err != nil {
		log.Fatal(err)
	}

	timing, err := virtualsync.AnalyzeTiming(circuit, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded pipeline: minimum period %.0f ps\n", timing.MinPeriod)
	fmt.Print("critical path: ")
	for i, id := range timing.CriticalPath {
		if i > 0 {
			fmt.Print(" -> ")
		}
		fmt.Print(circuit.Node(id).Name)
	}
	fmt.Println()

	base, err := virtualsync.RetimeAndSize(circuit, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retiming&sizing baseline: %.0f ps\n", base.Period)

	res, err := virtualsync.Optimize(base.Circuit, lib, virtualsync.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VirtualSync: %.1f ps -> %.1f ps (%.1f%% faster clock)\n",
		res.BaselinePeriod, res.Period, res.PeriodReductionPct())
	fmt.Printf("removed %d pipeline registers; inserted %d FF units, %d latches, %d buffers\n",
		res.RemovedFFs, res.NumFFUnits, res.NumLatchUnits, res.NumBuffers)
	fmt.Printf("area: %.1f -> %.1f (%+.2f%%)\n", res.BaselineArea, res.Area, res.AreaDeltaPct())

	ms, err := virtualsync.VerifyEquivalence(base.Circuit, res.Circuit, lib,
		res.BaselinePeriod, res.Period, 100, 8, 7)
	if err != nil {
		log.Fatal(err)
	}
	if len(ms) != 0 {
		log.Fatalf("functional mismatch: %v", ms[0])
	}
	fmt.Println("functional equivalence verified over 100 cycles")
	// Output:
	// loaded pipeline: minimum period 238 ps
	// critical path: r0 -> x0 -> y0 -> y2 -> z0 -> z2 -> z3 -> p
	// retiming&sizing baseline: 86 ps
	// VirtualSync: 94.6 ps -> 62.9 ps (33.5% faster clock)
	// removed 7 pipeline registers; inserted 0 FF units, 2 latches, 9 buffers
	// area: 86.2 -> 81.2 (-5.80%)
	// functional equivalence verified over 100 cycles
}

// feedbackBench is an accumulator: acc' = (acc XOR in) with a deep
// correction network, plus a side pipeline that reads the accumulator.
const feedbackBench = `
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

// This example optimizes a circuit whose critical path runs around a
// register feedback loop (an accumulator-style structure).
//
// Removing the loop's flip-flop exposes a combinational cycle, so
// VirtualSync must re-insert a sequential delay unit — possibly at a
// shifted clock phase — to keep the loop synchronized (paper Section 4.1:
// "signals along combinational loops should also be blocked"). The
// example shows the inserted units and checks cycle-accurate equivalence.
func Example_feedback() {
	lib := virtualsync.DefaultLibrary()
	circuit, err := virtualsync.LoadCircuit(strings.NewReader(feedbackBench), "feedback")
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
	// Output:
	// retiming&sizing baseline: 154 ps (loop-bound: retiming cannot touch the cycle)
	// VirtualSync: 169.4 ps -> 139.8 ps (17.5%)
	// sequential delay units inserted: 1 flip-flops, 1 latches
	//   unit vs_ff_13   phase 0.75T
	//   unit vs_lt_12   phase 0.00T (latch)
	// loop state tracked exactly: 120-cycle equivalence OK
}
