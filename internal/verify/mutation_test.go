package verify

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
)

// smokeBudget is the number of generated cases each injected bug class
// gets before the smoke test declares the harness insensitive. It is
// sized well under the make fuzz-short budget (~20s per target at ~10ms
// per case).
const smokeBudget = 60

// smokeCases yields the deterministic byte strings every mutation class
// is tested against — all classes see the same case stream.
func smokeCases(i int, rng *rand.Rand) []byte {
	data := make([]byte, 12+rng.Intn(100))
	rng.Read(data)
	_ = i
	return data
}

func liveCount(c *netlist.Circuit) int {
	n := 0
	c.Live(func(*netlist.Node) { n++ })
	return n
}

// TestMutationSmoke verifies the harness's sensitivity: every known bug
// class, injected into an otherwise correct optimization result, must be
// detected within the budget, and the shrinker must deterministically
// reduce the detected counterexample while keeping it failing. With
// VFUZZ_WRITE_SEEDS=1 the shrunk counterexample for each class is
// written to testdata/regressions/ (how the checked-in seeds were made).
func TestMutationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation smoke is not -short")
	}
	for _, mut := range Mutations() {
		mut := mut
		t.Run(mut.Name, func(t *testing.T) {
			ck := NewChecker()
			ck.Mutate = mut
			rng := rand.New(rand.NewSource(2024))
			var failing *gen.Decoded
			var rep *Report
			tried, sites := 0, 0
			for i := 0; i < smokeBudget && failing == nil; i++ {
				d, err := gen.DecodeCase(smokeCases(i, rng))
				if err != nil {
					continue
				}
				tried++
				r := ck.Check(d)
				if r.Mutated {
					sites++
				}
				if r.Outcome == Fail {
					if !r.Mutated {
						t.Fatalf("case %d failed without the mutation applying — real pipeline bug: %v", i, r)
					}
					failing, rep = d, r
				}
			}
			if failing == nil {
				t.Fatalf("bug class %q escaped detection: %d cases tried, %d offered a site",
					mut.Name, tried, sites)
			}
			t.Logf("detected after %d cases (%d sites): %v", tried, sites, rep)

			// The shrinker must keep the case failing, never grow it, and be
			// deterministic end to end.
			shrunk, spent := ck.Shrink(failing, 0)
			again, spent2 := ck.Shrink(failing, 0)
			if spent != spent2 || shrunk.Circuit.String() != again.Circuit.String() {
				t.Fatalf("shrinking is nondeterministic: %d vs %d checks", spent, spent2)
			}
			if shrunk.Cycles > failing.Cycles || liveCount(shrunk.Circuit) > liveCount(failing.Circuit) {
				t.Fatalf("shrinker grew the case: %d->%d nodes", liveCount(failing.Circuit), liveCount(shrunk.Circuit))
			}
			srep := ck.Check(shrunk)
			if srep.Outcome != Fail {
				t.Fatalf("shrunk counterexample no longer fails: %v", srep)
			}
			t.Logf("shrunk %d->%d nodes, %d->%d cycles in %d checks: %v",
				liveCount(failing.Circuit), liveCount(shrunk.Circuit),
				failing.Cycles, shrunk.Cycles, spent, srep)

			// Without the mutation the shrunk circuit must be clean — it is a
			// harness-sensitivity seed, not a real bug.
			if crep := NewChecker().Check(shrunk); crep.Outcome == Fail {
				t.Fatalf("shrunk case fails even without the mutation: %v", crep)
			}

			if os.Getenv("VFUZZ_WRITE_SEEDS") == "1" {
				path, err := SaveRegression("testdata/regressions", shrunk, seedNote(ck, srep))
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
			}
		})
	}
}

// TestRegressions replays every checked-in seed: each must be clean
// under the real pipeline, and seeds recorded from a mutation class must
// still be detected when that mutation is re-injected — so the corpus
// keeps guarding both the pipeline and the harness's sensitivity.
func TestRegressions(t *testing.T) {
	files, err := RegressionFiles("testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no regression seeds checked in under testdata/regressions")
	}
	for _, path := range files {
		seed, err := LoadRegression(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rep := NewChecker().Check(seed.Case); rep.Outcome == Fail {
			t.Errorf("%s: fails under the real pipeline: %v", path, rep)
		}
		name := mutationOf(seed.Note)
		if name == "" {
			continue
		}
		mut := MutationByName(name)
		if mut == nil {
			t.Errorf("%s: unknown mutation %q in note", path, name)
			continue
		}
		ck := NewChecker()
		ck.Mutate = mut
		if rep := ck.Check(seed.Case); rep.Outcome != Fail {
			t.Errorf("%s: mutation %q no longer detected on its stored counterexample: %v",
				path, mut.Name, rep)
		}
	}
}

// mutationOf returns the bug class a seed note records ("mutation=NAME;
// ..."), or "" for a seed of the real pipeline.
func mutationOf(note string) string {
	name, ok := strings.CutPrefix(note, "mutation=")
	if !ok {
		return ""
	}
	name, _, _ = strings.Cut(name, ";")
	return strings.TrimSpace(name)
}

// TestCounterexampleMessage checks that a fuzz failure message carries a
// replayable seed: on a mutation-injected failing case, the seed between
// the markers loads with LoadRegression, names its mutation, and still
// fails with that mutation re-injected.
func TestCounterexampleMessage(t *testing.T) {
	files, err := RegressionFiles("testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	var seed *Seed
	for _, path := range files {
		if s, err := LoadRegression(path); err == nil && mutationOf(s.Note) != "" {
			seed = s
			break
		}
	}
	if seed == nil {
		t.Fatal("no mutation seed checked in under testdata/regressions")
	}
	ck := NewChecker()
	ck.Mutate = MutationByName(mutationOf(seed.Note))
	rep := ck.Check(seed.Case)
	if rep.Outcome != Fail {
		t.Fatalf("%s: mutation seed does not fail: %v", seed.Path, rep)
	}

	msg := counterexample(ck, seed.Case, rep)
	_, text, ok := strings.Cut(msg, seedBegin)
	text, _, ok2 := strings.Cut(text, seedEnd)
	if !ok || !ok2 {
		t.Fatalf("failure message has no marked seed:\n%s", msg)
	}
	path := filepath.Join(t.TempDir(), "reg_message.bench")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRegression(path)
	if err != nil {
		t.Fatalf("seed from the failure message does not load: %v\n%s", err, text)
	}
	if name := mutationOf(got.Note); name != ck.Mutate.Name {
		t.Fatalf("seed note %q names mutation %q, want %q", got.Note, name, ck.Mutate.Name)
	}
	if again := ck.Check(got.Case); again.Outcome != Fail {
		t.Fatalf("seed from the failure message no longer fails: %v\n%s", again, text)
	}
}
