package verify

import (
	"math/rand"
	"testing"

	"virtualsync/internal/gen"
	"virtualsync/internal/sim"
)

// TestPowerOnRingSkipped pins the stored free-running ring: its trace is
// decided by power-on state alone, so the checker must skip it before
// simulating instead of reporting the power-on difference as a
// functional mismatch. The optimizer, validator and apply stages still
// run on it.
func TestPowerOnRingSkipped(t *testing.T) {
	seed, err := LoadRegression("testdata/regressions/reg_e867fa1d.bench")
	if err != nil {
		t.Fatal(err)
	}
	rep := NewChecker().Check(seed.Case)
	if rep.Outcome != Skip || rep.Stage != "reset" || rep.Result == nil {
		t.Fatalf("got %v (result %v), want an optimized case skipped at [reset]", rep, rep.Result != nil)
	}
}

// TestGeneratedCasesFlush checks that the reset prefix flushes every
// register of the generated cases, so the power-on check never skips
// what the generator produces: its feedback rings carry input masks.
func TestGeneratedCasesFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 300; i++ {
		d, err := gen.DecodeCase(smokeCases(i, rng))
		if err != nil {
			continue
		}
		checked++
		stim := sim.ResetStimulus(d.Circuit, d.Cycles, resetCycles(d), d.StimSeed)
		if r := unflushed(d.Circuit, stim, d.Warmup); r != nil {
			t.Fatalf("case %d: register %s not flushed by cycle %d:\n%s", i, r.Name, d.Warmup, d.Circuit)
		}
	}
	if checked == 0 {
		t.Fatal("no case decoded")
	}
}
