package main

// Golden-file tests pin the exact bytes of every report vexp prints.
// The fixtures are hand-written (no optimizer run), so these tests keep
// the report layout stable without being sensitive to solver behavior.
// Regenerate after an intentional format change with
//
//	go test ./cmd/vexp -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"virtualsync/internal/expt"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
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

// fixtureRows covers the formatting corners: a clean verified row, an
// equivalence failure, and an unchecked row with no same-period area.
func fixtureRows() []*expt.CircuitResult {
	return []*expt.CircuitResult{
		{
			Name: "s27", NS: 3, NG: 10, NCS: 2, NCG: 6,
			NF: 1, NL: 0, NB: 3, NT: 11.5, NA: 2.75,
			Runtime:        1500 * time.Millisecond,
			Wall:           1800 * time.Millisecond,
			BaselinePeriod: 21, Period: 18.585,
			BaselineArea: 100, Area: 104,
			UnitsBeforeReplace: 5, UnitsAfterReplace: 1, AreaRatioPct: 62.5,
			AreaSamePeriod: 102, BaselineAreaSamePeriod: 100,
			EquivChecked: true, EquivOK: true,
		},
		{
			Name: "s5378", NS: 179, NG: 2779, NCS: 23, NCG: 164,
			NF: 2, NL: 4, NB: 17, NT: 3.1, NA: -0.42,
			Runtime:        42300 * time.Millisecond,
			Wall:           45250 * time.Millisecond,
			BaselinePeriod: 30.4, Period: 29.458,
			BaselineArea: 2779, Area: 2801,
			UnitsBeforeReplace: 11, UnitsAfterReplace: 6, AreaRatioPct: 81.8,
			AreaSamePeriod: 2790, BaselineAreaSamePeriod: 2785,
			EquivChecked: true, EquivOK: false, Mismatches: 7,
		},
		{
			Name: "s9234", NS: 211, NG: 5597, NCS: 0, NCG: 0,
			NF: 0, NL: 0, NB: 0, NT: 0, NA: 0,
			Runtime:            900 * time.Millisecond,
			Wall:               1100 * time.Millisecond,
			UnitsBeforeReplace: 0, UnitsAfterReplace: 0, AreaRatioPct: 100,
		},
	}
}

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1.txt", expt.FormatTable1(fixtureRows()))
}

func TestGoldenFig6(t *testing.T) {
	checkGolden(t, "fig6.txt", expt.FormatFig6(fixtureRows()))
}

func TestGoldenFig7(t *testing.T) {
	checkGolden(t, "fig7.txt", expt.FormatFig7(fixtureRows()))
}

func TestGoldenFig8(t *testing.T) {
	checkGolden(t, "fig8.txt", expt.FormatFig8(fixtureRows()))
}

func TestGoldenFig1(t *testing.T) {
	f := &expt.Fig1Result{
		Original: 21, Sized: 16, Retimed: 11,
		VirtualSync: 8.5, MarginedRetimed: 12.1,
	}
	checkGolden(t, "fig1.txt", expt.FormatFig1(f))
}

func TestGoldenCSV(t *testing.T) {
	var b bytes.Buffer
	if err := expt.WriteCSV(&b, fixtureRows()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "suite.csv", b.String())
}

// TestGoldenFig2 pins vexp -exp fig2, which needs no optimizer run; its
// golden file is the committed results/fig2.txt.
func TestGoldenFig2(t *testing.T) {
	checkGolden(t, "fig2.txt", expt.FormatFig2(expt.RunFig2()))
}
