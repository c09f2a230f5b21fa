package verify

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"virtualsync/internal/gen"
)

func TestRegressionRoundTrip(t *testing.T) {
	d, err := gen.DecodeCase([]byte{9, 2, 2, 1, 4, 250, 13, 40, 7, 99, 3, 18, 5, 77, 1, 0, 254, 6})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := SaveRegression(dir, d, "round trip; with=semicolons")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := LoadRegression(path)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Note != "round trip; with=semicolons" {
		t.Fatalf("note = %q", seed.Note)
	}
	got, want := seed.Case, d
	if got.Cycles != want.Cycles || got.Warmup != want.Warmup ||
		got.StimSeed != want.StimSeed || got.TFrac != want.TFrac {
		t.Fatalf("knobs changed across round trip: %+v vs %+v", got, want)
	}
	// Compare everything but the "# circuit <name>" header line — the
	// loaded circuit is renamed after its file.
	stripName := func(s string) string { return s[strings.IndexByte(s, '\n'):] }
	if stripName(got.Circuit.String()) != stripName(want.Circuit.String()) {
		t.Fatalf("circuit changed across round trip:\n%s\nvs\n%s",
			got.Circuit.String(), want.Circuit.String())
	}

	// Saving again is idempotent (same content hash, same file).
	path2, err := SaveRegression(dir, d, "different note, same case")
	if err != nil {
		t.Fatal(err)
	}
	if path2 != path {
		t.Fatalf("same case saved under two names: %s vs %s", path, path2)
	}
	files, err := RegressionFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != filepath.Base(path) {
		t.Fatalf("RegressionFiles = %v", files)
	}

	// A missing corpus directory is empty, not an error.
	none, err := RegressionFiles(filepath.Join(dir, "nope"))
	if err != nil || none != nil {
		t.Fatalf("missing dir: %v, %v", none, err)
	}

	// Corrupt knobs are a parse error, not silent defaults.
	bad := filepath.Join(dir, "bad.bench")
	if err := os.WriteFile(bad, []byte("# knobs: cycles=x\nINPUT(a)\nOUTPUT(z)\nz = BUF(a)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRegression(bad); err == nil {
		t.Fatal("corrupt knobs line loaded without error")
	}
}
