package expt

// Figs. 6-8 are rendered from the same suite rows as Table 1, so the
// committed figures must agree with the committed results/table1.csv,
// which make check-procs holds to a fresh suite run. This test renders
// them from that CSV and diffs them against results/fig{6,7,8}.txt.
// After a QoR change regenerates the CSV, rewrite the figures with
//
//	go test ./internal/expt -run TestFigsMatchTable1CSV -update

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

const resultsDir = "../../results"

// readTable1CSV reads the figure columns of a WriteCSV file back into
// suite rows.
func readTable1CSV(t *testing.T, path string) []*CircuitResult {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s: no rows", path)
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	field := func(rec []string, name string) string {
		i, ok := col[name]
		if !ok {
			t.Fatalf("%s: no column %q", path, name)
		}
		return rec[i]
	}
	num := func(rec []string, name string) float64 {
		v, err := strconv.ParseFloat(field(rec, name), 64)
		if err != nil {
			t.Fatalf("%s: column %s: %v", path, name, err)
		}
		return v
	}
	count := func(rec []string, name string) int {
		v, err := strconv.Atoi(field(rec, name))
		if err != nil {
			t.Fatalf("%s: column %s: %v", path, name, err)
		}
		return v
	}
	var rows []*CircuitResult
	for _, rec := range recs[1:] {
		rows = append(rows, &CircuitResult{
			Name:                   field(rec, "circuit"),
			UnitsBeforeReplace:     count(rec, "units_before_replace"),
			UnitsAfterReplace:      count(rec, "units_after_replace"),
			AreaRatioPct:           num(rec, "area_ratio_pct"),
			AreaSamePeriod:         num(rec, "area_same_period"),
			BaselineAreaSamePeriod: num(rec, "baseline_area_same_period"),
		})
	}
	return rows
}

func TestFigsMatchTable1CSV(t *testing.T) {
	rows := readTable1CSV(t, filepath.Join(resultsDir, "table1.csv"))
	for _, fig := range []struct {
		file string
		text string
	}{
		{"fig6.txt", FormatFig6(rows)},
		{"fig7.txt", FormatFig7(rows)},
		{"fig8.txt", FormatFig8(rows)},
	} {
		path := filepath.Join(resultsDir, fig.file)
		if *update {
			if err := os.WriteFile(path, []byte(fig.text), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != fig.text {
			t.Errorf("%s disagrees with results/table1.csv (run with -update after regenerating the CSV)\n--- rendered from the CSV ---\n%s\n--- committed ---\n%s",
				path, fig.text, want)
		}
	}
}
