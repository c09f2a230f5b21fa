package expt

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"virtualsync/internal/variation"
)

// TestRunSuiteParallelDeterminism runs the two smallest paper circuits
// through RunSuite sequentially and with four workers and asserts the
// formatted Table 1 output is byte-identical. Runtime is the only
// wall-clock-dependent field, so it is zeroed before formatting.
func TestRunSuiteParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite flow skipped in -short mode")
	}
	names := []string{"s5378", "systemcdes"}
	cfg := DefaultConfig()
	cfg.VerifyCycles = 16

	run := func(workers int) string {
		cfg.Workers = workers
		rows, err := RunSuite(context.Background(), names, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rows) != len(names) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), len(names))
		}
		for _, r := range rows {
			r.Runtime = 0
		}
		return FormatTable1(rows)
	}

	seq := run(1)
	par := run(4)
	if seq != par {
		t.Fatalf("parallel suite output differs\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
}

// TestRunSuiteCollectsErrors checks that per-circuit failures do not
// abort the suite: with invalid optimizer options every circuit fails,
// the joined error names each of them, and no rows are returned.
func TestRunSuiteCollectsErrors(t *testing.T) {
	names := []string{"s5378", "systemcdes"}
	cfg := DefaultConfig()
	cfg.Opts.SelectFrac = -1 // fails Options.Validate in every circuit
	cfg.Workers = 2

	rows, err := RunSuite(context.Background(), names, cfg)
	if err == nil {
		t.Fatal("invalid options produced no error")
	}
	if len(rows) != 0 {
		t.Fatalf("failing circuits still returned %d rows", len(rows))
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("joined error does not mention %s: %v", n, err)
		}
	}
}

// TestRunExpiredDeadline checks that an expired run deadline survives
// the per-circuit error wrapping of RunSuite and RunYield, so front ends
// can tell a timeout from a failure with errors.Is.
func TestRunExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	names := []string{"s5378"}
	if _, err := RunSuite(ctx, names, DefaultConfig()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("RunSuite under an expired deadline: %v, want context.DeadlineExceeded", err)
	}
	mc := variation.Config{Samples: 10, Seed: 1, Model: variation.DefaultModel()}
	if _, err := RunYield(ctx, names, DefaultConfig(), mc); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("RunYield under an expired deadline: %v, want context.DeadlineExceeded", err)
	}
}

// TestRunSuiteProgressSerialized makes sure concurrent workers share one
// progress writer without interleaving within a line: every line the
// writer receives is a complete per-circuit report.
func TestRunSuiteProgressSerialized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Opts.SelectFrac = -1
	cfg.Workers = 2
	var sb strings.Builder
	cfg.Progress = &sb
	// Failing circuits write no progress lines, but the writer is still
	// wrapped and exercised by the worker pool without racing.
	if _, err := RunSuite(context.Background(), []string{"s5378", "systemcdes"}, cfg); err == nil {
		t.Fatal("expected error")
	}
	if got := sb.String(); got != "" {
		for _, line := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
			if !strings.Contains(line, "T ") {
				t.Errorf("garbled progress line: %q", line)
			}
		}
	}
}
