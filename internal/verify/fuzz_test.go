package verify

// Native Go fuzz targets over the internal/gen byte-string decoder. Run
// continuously with
//
//	go test -fuzz=FuzzOptimizeEquivalence -fuzztime=20s ./internal/verify
//
// (one target per invocation; make fuzz-short runs them all). The seeds
// below also execute as plain unit tests on every `go test`, so the
// targets double as cheap smoke coverage of the decoder corners: empty
// input, minimal default case, deep single stage, bypass+ring flags.

import (
	"fmt"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/prng"
	"virtualsync/internal/sim"
)

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{2, 0, 1, 1, 6, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{200, 1, 7, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{9, 2, 2, 1, 4, 250, 13, 40, 7, 99, 3, 18, 5, 77, 1, 0, 254, 6, 21, 8})
	f.Add([]byte{1, 1, 6, 2, 4, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 127, 63, 31, 15, 7, 3})
}

// FuzzOptimizeEquivalence is the flagship target: decode, run the whole
// VirtualSync pipeline, and demand cycle-accurate boundary equivalence
// between original and optimized netlists under reset+random stimulus.
// A failure reports the shrunk counterexample as a regression seed.
func FuzzOptimizeEquivalence(f *testing.F) {
	fuzzSeeds(f)
	ck := NewChecker()
	f.Fuzz(func(t *testing.T, data []byte) {
		if rep := ck.CheckBytes(data); rep.Outcome == Fail {
			d, _ := gen.DecodeCase(data)
			t.Fatal(counterexample(ck, d, rep))
		}
	})
}

// Markers around the regression seed in a counterexample message.
const (
	seedBegin = "----- regression seed -----\n"
	seedEnd   = "----- end of seed -----\n"
)

// counterexample shrinks a case that fails under ck and renders the
// failure message: the original verdict, then the shrunk case in the
// regression seed format. Saved as testdata/regressions/<name>.bench,
// the seed becomes a permanent TestRegressions case.
func counterexample(ck *Checker, d *gen.Decoded, rep *Report) string {
	shrunk, spent := ck.Shrink(d, 0)
	return fmt.Sprintf("differential check failed: %v\nshrunk in %d checks; save as testdata/regressions/<name>.bench to replay it:\n%s%s%s",
		rep, spent, seedBegin, FormatRegression(shrunk, seedNote(ck, ck.Check(shrunk))), seedEnd)
}

// seedNote is the note of a regression seed that fails under ck with
// rep. A seed found under an injected mutation records it
// ("mutation=NAME; ..."), so TestRegressions re-injects it on replay.
func seedNote(ck *Checker, rep *Report) string {
	if ck.Mutate == nil {
		return rep.String()
	}
	return "mutation=" + ck.Mutate.Name + "; " + rep.String()
}

// FuzzLegalize stresses the legalized plan itself: whenever the pipeline
// produces a plan, it must satisfy the exact-model validator and its
// per-edge arrays must be mutually consistent.
func FuzzLegalize(f *testing.F) {
	fuzzSeeds(f)
	ck := NewChecker()
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := gen.DecodeCase(data)
		if err != nil {
			return
		}
		res, err := ck.optimize(d)
		if err != nil || res == nil {
			if err != nil && !isBenign(err) {
				t.Fatalf("optimize: %v", err)
			}
			return
		}
		p := res.Plan
		if vs := p.Validate(); len(vs) > 0 {
			t.Fatalf("legalized plan violates exact model: %v", vs[0])
		}
		if len(p.Unit) != len(p.R.Edges) || len(p.Chain) != len(p.R.Edges) {
			t.Fatalf("plan arrays inconsistent: %d units, %d chains, %d edges",
				len(p.Unit), len(p.Chain), len(p.R.Edges))
		}
		for i, u := range p.Unit {
			if u.Kind == core.UnitLatch && (u.PhaseFrac < 0 || u.PhaseFrac >= 1) {
				t.Fatalf("edge %d: latch phase %g out of [0,1)", i, u.PhaseFrac)
			}
			if p.ChainDelay[i] < -1e-9 {
				t.Fatalf("edge %d: negative chain delay %g", i, p.ChainDelay[i])
			}
		}
	})
}

// FuzzBitSimAgainstEventSim is the differential target for the two
// simulation engines themselves: on every decodable generated circuit
// (phase-0 DFF originals, where zero-delay semantics are provably
// exact), all 64 bit-parallel lanes must match an event-engine run of
// the same stimulus cycle for cycle, including the pre-warmup prefix.
func FuzzBitSimAgainstEventSim(f *testing.F) {
	fuzzSeeds(f)
	lib := celllib.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := gen.DecodeCase(data)
		if err != nil {
			return
		}
		if !sim.BitSimExact(d.Circuit) {
			t.Fatalf("generated original not BitSimExact")
		}
		rgn, err := core.Extract(d.Circuit, lib, core.ExtractOptions{SelectFrac: 1})
		if err != nil {
			return // no STA baseline: period choice undefined, skip
		}
		T := rgn.Baseline.MinPeriod * 1.05
		seeds := prng.LaneSeeds(d.StimSeed, 64)
		scalar := make([][][]bool, len(seeds))
		for l, seed := range seeds {
			scalar[l] = sim.RandomStimulus(d.Circuit, d.Cycles, seed)
		}
		words, err := sim.PackStimulus(scalar)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := sim.NewBit(d.Circuit, sim.BitOptions{Cycles: d.Cycles, Lanes: 64})
		if err != nil {
			t.Fatal(err)
		}
		bt, err := bs.Run(words)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := sim.New(d.Circuit, lib, sim.Options{T: T, Cycles: d.Cycles})
		if err != nil {
			t.Fatal(err)
		}
		for l := range scalar {
			ref, err := ev.Run(scalar[l])
			if err != nil {
				t.Fatal(err)
			}
			lane, err := bt.Lane(l)
			if err != nil {
				t.Fatal(err)
			}
			if mm := sim.CompareTraces(ref, lane, 0); len(mm) != 0 {
				t.Fatalf("lane %d diverges from event engine at T=%g: %v\ncircuit:\n%s",
					l, T, mm[0], d.Circuit.String())
			}
		}
	})
}

// FuzzWaveBitSimAgainstEventSim is the differential target for the
// word-parallel continuous-time engine on the circuits it exists for:
// wave-pipelined optimized netlists, where flip-flops have been
// replaced by latch delay units and multi-period logic waves. Whenever
// the pipeline produces an optimized circuit, a 128-lane (two words
// per value) WaveSim run at the optimized period must match the scalar
// event engine on every lane, cycle for cycle, from cycle 0 — WaveSim
// claims exactness, not zero-delay approximation, so there is no
// calibration escape here.
func FuzzWaveBitSimAgainstEventSim(f *testing.F) {
	fuzzSeeds(f)
	ck := NewChecker()
	const lanes = 128
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := gen.DecodeCase(data)
		if err != nil {
			return
		}
		res, err := ck.optimize(d)
		if err != nil || res == nil {
			if err != nil && !isBenign(err) {
				t.Fatalf("optimize: %v", err)
			}
			return
		}
		seeds := prng.LaneSeeds(d.StimSeed, lanes)
		scalar := make([][][]bool, len(seeds))
		for l, seed := range seeds {
			scalar[l] = sim.RandomStimulus(res.Circuit, d.Cycles, seed)
		}
		words, err := sim.PackStimulus(scalar)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := sim.NewWave(res.Circuit, ck.Lib, sim.WaveOptions{T: res.Period, Cycles: d.Cycles, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		bt, err := ws.Run(words)
		if err != nil {
			t.Fatal(err)
		}
		if bt.K != 2 {
			t.Fatalf("128-lane trace packed K=%d words, want 2", bt.K)
		}
		ev, err := sim.New(res.Circuit, ck.Lib, sim.Options{T: res.Period, Cycles: d.Cycles})
		if err != nil {
			t.Fatal(err)
		}
		for l := range scalar {
			ref, err := ev.Run(scalar[l])
			if err != nil {
				t.Fatal(err)
			}
			lane, err := bt.Lane(l)
			if err != nil {
				t.Fatal(err)
			}
			if mm := sim.CompareTraces(ref, lane, 0); len(mm) != 0 {
				t.Fatalf("lane %d diverges from event engine at T=%g: %v\noptimized circuit:\n%s",
					l, res.Period, mm[0], res.Circuit.String())
			}
		}
	})
}

// FuzzDiscretize stresses the materialization stage: the applied circuit
// must stay structurally valid, schedulable, and its register accounting
// must match the plan (original DFFs - removed + inserted FF units).
func FuzzDiscretize(f *testing.F) {
	fuzzSeeds(f)
	ck := NewChecker()
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := gen.DecodeCase(data)
		if err != nil {
			return
		}
		res, err := ck.optimize(d)
		if err != nil || res == nil {
			if err != nil && !isBenign(err) {
				t.Fatalf("optimize: %v", err)
			}
			return
		}
		if err := res.Circuit.Validate(); err != nil {
			t.Fatalf("optimized circuit invalid: %v", err)
		}
		if _, err := res.Circuit.TopoOrder(); err != nil {
			t.Fatalf("optimized circuit unschedulable: %v", err)
		}
		wantDFFs := d.Circuit.Stats().DFFs - res.RemovedFFs + res.NumFFUnits
		if got := res.Circuit.Stats().DFFs; got != wantDFFs {
			t.Fatalf("register accounting off: %d DFFs in optimized circuit, want %d (= %d - %d removed + %d units)",
				got, wantDFFs, d.Circuit.Stats().DFFs, res.RemovedFFs, res.NumFFUnits)
		}
		if got := res.Circuit.Stats().Latches; got != res.NumLatchUnits {
			t.Fatalf("latch accounting off: %d latches, want %d", got, res.NumLatchUnits)
		}
	})
}
