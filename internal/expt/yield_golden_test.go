package expt

// Golden-file test for the yield report FormatYield renders (vsync
// yield and vexp -exp yield print it). The fixture is a hand-written
// Monte Carlo comparison (no sampling), so the test pins the exact
// report bytes: period marks, yield columns, and the count-sorted
// capped first-fail summary. Regenerate after an intentional format
// change with
//
//	go test ./internal/expt -run TestGoldenYield -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"virtualsync/internal/variation"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func fixtureYield() []*YieldResult {
	periods := []float64{10, 10.55, 11.1, 12.1}
	base := &variation.Result{
		Name: "fig1-base", Samples: 400, Seed: 7, Periods: periods,
		Pass: []int{12, 180, 368, 400},
		FirstFail: []map[string]int{
			{"setup": 388}, {"setup": 220}, {"setup": 32}, {},
		},
	}
	opt := &variation.Result{
		Name: "fig1-vsync", Samples: 400, Seed: 7, Periods: periods,
		Pass: []int{210, 361, 399, 400},
		// Four distinct modes at the first period exercise the cap at
		// three in the fail summary.
		FirstFail: []map[string]int{
			{"setup": 150, "hold": 20, "window": 12, "external-period": 8},
			{"setup": 30, "hold": 9},
			{"hold": 1},
			{},
		},
	}
	return []*YieldResult{{
		Name: "fig1",
		Cmp: &variation.Comparison{
			TOpt: 10, TBase: 12.1, Base: base, Opt: opt,
		},
	}}
}

func TestGoldenYield(t *testing.T) {
	got := FormatYield(fixtureYield())
	path := filepath.Join("testdata", "golden", "yield.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, []byte(got)) {
		t.Errorf("output differs from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
