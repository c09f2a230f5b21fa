package verify

// Regression seed storage. A shrunk counterexample is persisted as a
// .bench netlist whose header comments carry the replay knobs, making
// every stored failure a permanent, human-readable seed test:
//
//	# regression seed
//	# note: sim mismatch at f3, cycle 17
//	# knobs: cycles=24 warmup=10 stimseed=513 tfrac=0.050000 stepfrac=0.020000
//	INPUT(pi0)
//	...
//
// The bench parser ignores '#' comments, so the whole file parses as a
// circuit; LoadRegression additionally recovers the knobs line.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
)

// FormatRegression renders a fuzz case in the regression seed format.
func FormatRegression(d *gen.Decoded, note string) string {
	var b strings.Builder
	b.WriteString("# regression seed\n")
	if note != "" {
		b.WriteString("# note: " + strings.ReplaceAll(note, "\n", " ") + "\n")
	}
	fmt.Fprintf(&b, "# knobs: cycles=%d warmup=%d stimseed=%d tfrac=%f stepfrac=%f\n",
		d.Cycles, d.Warmup, d.StimSeed, d.TFrac, d.StepFrac)
	b.WriteString(d.Circuit.String())
	return b.String()
}

// SaveRegression writes the case to dir under a content-derived name and
// returns the path. Saving the same case twice is idempotent.
func SaveRegression(dir string, d *gen.Decoded, note string) (string, error) {
	text := FormatRegression(d, note)
	h := fnv.New32a()
	// Hash everything but the free-form note so renaming a note does not
	// duplicate the seed.
	fmt.Fprintf(h, "cycles=%d warmup=%d stimseed=%d tfrac=%f stepfrac=%f\n%s",
		d.Cycles, d.Warmup, d.StimSeed, d.TFrac, d.StepFrac, d.Circuit.String())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("reg_%08x.bench", h.Sum32()))
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Seed is a loaded regression file.
type Seed struct {
	Case *gen.Decoded
	Note string
	Path string
}

// LoadRegression parses a regression seed file back into a replayable
// case. Files without a knobs line get conservative defaults.
func LoadRegression(path string) (*Seed, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseRegression(string(raw), filepath.Base(path))
	if err != nil {
		return nil, err
	}
	s.Path = path
	return s, nil
}

// ParseRegression parses the regression seed format from a string.
func ParseRegression(text, name string) (*Seed, error) {
	d := &gen.Decoded{Cycles: 32, Warmup: 10, StimSeed: 1, TFrac: 0, StepFrac: 0.02}
	s := &Seed{Case: d}
	sawKnobs := false
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "# note:") {
			s.Note = strings.TrimSpace(strings.TrimPrefix(line, "# note:"))
			continue
		}
		if !strings.HasPrefix(line, "# knobs:") || sawKnobs {
			continue
		}
		_, err := fmt.Sscanf(strings.TrimPrefix(line, "# knobs:"),
			" cycles=%d warmup=%d stimseed=%d tfrac=%f stepfrac=%f",
			&d.Cycles, &d.Warmup, &d.StimSeed, &d.TFrac, &d.StepFrac)
		if err != nil {
			return nil, fmt.Errorf("verify: %s: bad knobs line: %v", name, err)
		}
		sawKnobs = true
	}
	c, err := netlist.ParseString(text, strings.TrimSuffix(name, ".bench"))
	if err != nil {
		return nil, fmt.Errorf("verify: %s: %v", name, err)
	}
	d.Circuit = c
	return s, nil
}

// RegressionFiles lists the .bench seeds under dir in sorted order. A
// missing directory is an empty corpus, not an error.
func RegressionFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".bench") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
