package main

// Golden-file tests for vsync's output. The flow is deterministic and
// the -eco report carries no wall-clock times, so the tests pin the
// exact bytes: periods, cone size, plan/basis transfer status and probe
// counts, and the whole output of the sta, sim, gen and yield
// subcommands. Regenerate after an intentional format
// change with
//
//	go test ./cmd/vsync -run TestGolden -update

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

var (
	tiny    = filepath.Join("testdata", "tiny.bench")
	tinyOpt = filepath.Join("testdata", "tiny_opt.bench") // tiny.bench optimized by vsync -skip-baseline
)

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("output differs from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenHelp pins the -help usage text, so any flag addition,
// removal or rewording shows up in review as a golden diff rather than
// slipping by unnoticed.
func TestGoldenHelp(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-help"}, &buf); err != nil {
		t.Fatalf("vsync -help: %v", err)
	}
	checkGolden(t, "help.txt", buf.Bytes())
}

func TestGoldenECOReport(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-skip-baseline",
		"-eco", filepath.Join("testdata", "eco.edits"),
		"-verify", "32",
		tiny,
	}, &buf)
	if err != nil {
		t.Fatalf("vsync -eco: %v\noutput so far:\n%s", err, buf.String())
	}
	checkGolden(t, "eco_report.txt", buf.Bytes())
}

// TestGoldenSubcommands pins the output and the exit status of the sta,
// sim, gen and yield subcommands, -help included. The golden files were
// first written by the standalone vsta, vsim, vgen and vyield commands
// that these subcommands replace.
func TestGoldenSubcommands(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
		fails  bool // exit status 1, the failure shown in the output
	}{
		{"gen_s5378.bench", []string{"gen", "-bench", "s5378"}, false},
		{"gen_s5378.v", []string{"gen", "-verilog", "-bench", "s5378"}, false},
		{"sta_tiny.txt", []string{"sta", tiny}, true}, // hold violations at f1, f2
		{"sim_tiny.txt", []string{"sim", "-cycles", "16", tiny}, false},
		{"sim_compare.txt", []string{"sim", "-compare", tinyOpt, "-T2", "12.71", tiny}, false},
		{"sim_compare_mismatch.txt", []string{"sim", "-compare", tiny, "-T2", "40", tiny}, true},
		{"help_sta.txt", []string{"sta", "-help"}, false},
		{"help_sim.txt", []string{"sim", "-help"}, false},
		{"help_gen.txt", []string{"gen", "-help"}, false},
		{"yield_s5378.txt", []string{"yield", "-bench", "s5378", "-samples", "50", "-seed", "7", "-workers", "1"}, false},
		{"help_yield.txt", []string{"yield", "-help"}, false},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			if tc.fails && !errors.Is(err, errReported) || !tc.fails && err != nil {
				t.Fatalf("vsync %s: error %v, want failure %v\noutput:\n%s",
					strings.Join(tc.args, " "), err, tc.fails, buf.String())
			}
			checkGolden(t, tc.golden, buf.Bytes())
		})
	}
}

// TestVerifyLanesAboveMax checks that a lane count past the bit-parallel
// limit is an error rather than a silent one-lane check.
func TestVerifyLanesAboveMax(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-skip-baseline", "-verify", "32", "-verify-lanes", "5000", tiny}, &buf)
	if err == nil || !strings.Contains(err.Error(), "1..4096") {
		t.Fatalf("vsync -verify-lanes 5000: error %v, want one naming the 1..4096 range\noutput:\n%s", err, buf.String())
	}
	if buf.Len() > 0 {
		t.Errorf("rejected run printed output:\n%s", buf.String())
	}
}

// TestYieldTuneTimeout checks that a -tune run cut by -timeout names
// the flag instead of reporting a bare context error. The s5378
// baseline alone outlasts the 1ms deadline, so the sweep always starts
// with an expired context.
func TestYieldTuneTimeout(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"yield", "-bench", "s5378", "-tune", "-timeout", "1ms"}, &buf)
	if err == nil || err.Error() != "run exceeded -timeout 1ms" {
		t.Fatalf("vsync yield -tune -timeout 1ms: error %v, want \"run exceeded -timeout 1ms\"\noutput:\n%s", err, buf.String())
	}
}
