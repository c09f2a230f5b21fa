package main

// Golden-file test for the -eco report. The report carries no
// wall-clock times and the whole flow is deterministic, so the test
// pins the exact bytes: periods, cone size, incremental-STA counts,
// splice/transfer status and probe counts. Regenerate after an
// intentional format change with
//
//	go test ./cmd/vsync -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenHelp pins the -help usage text, so any flag addition,
// removal or rewording shows up in review as a golden diff rather than
// slipping by unnoticed.
func TestGoldenHelp(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-help"}, &buf); err != nil {
		t.Fatalf("vsync -help: %v", err)
	}
	path := filepath.Join("testdata", "golden", "help.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("usage differs from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}

func TestGoldenECOReport(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-skip-baseline",
		"-eco", filepath.Join("testdata", "eco.edits"),
		"-verify", "32",
		filepath.Join("testdata", "tiny.bench"),
	}, &buf)
	if err != nil {
		t.Fatalf("vsync -eco: %v\noutput so far:\n%s", err, buf.String())
	}
	path := filepath.Join("testdata", "golden", "eco_report.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("output differs from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}
