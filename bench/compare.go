package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// Config is BENCHMARK.json, the benchmark's definition.
type Config struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []ConfigMetric `json:"end_to_end"`
	PerLayer []ConfigMetric `json:"per_layer"`
}

// ConfigMetric is one metric of BENCHMARK.json. Per-layer metrics have
// no bound.
type ConfigMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadConfig reads BENCHMARK.json.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// Saved is one saved benchmark output: the host block and the result.
type Saved struct {
	File   string
	Host   Host
	Result Result
}

// ReadSaved parses a run's saved standard output: the {"host": ...} line
// and the result on the last line.
func ReadSaved(path string) (*Saved, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run := &Saved{File: path}
	var last string
	haveHost := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		var h struct {
			Host *Host `json:"host"`
		}
		if json.Unmarshal([]byte(line), &h) == nil && h.Host != nil {
			run.Host, haveHost = *h.Host, true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !haveHost {
		return nil, fmt.Errorf("%s: no host block", path)
	}
	if err := json.Unmarshal([]byte(last), &run.Result); err != nil || run.Result.Metrics == nil {
		return nil, fmt.Errorf("%s: last line is not a result", path)
	}
	return run, nil
}

// ErrRegression is returned by Compare when a metric of set B is worse
// than set A's by more than its bound.
var ErrRegression = errors.New("regression beyond a bound")

// Compare prints, per workload and metric, the medians and quartiles of
// two sets of runs and judges each end-to-end metric against its bound:
// "ok", "REGRESSION", or "unresolved" when either set's spread (the
// distance between its quartiles, as a share of its median) exceeds the
// bound and the two sets' runs overlap. Per-layer metrics have no bound
// and are listed with their change only. Sets measured with different
// CPU counts or GOMAXPROCS, or sized by a different --seconds or -quick
// (and so doing different work), are refused.
func Compare(w io.Writer, cfg *Config, a, b []*Saved) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("compare: both sets need at least one run")
	}
	ref := a[0].Host
	shape := func(h Host) string {
		return fmt.Sprintf("ncpu=%d gomaxprocs=%d seconds=%d quick=%v", h.NCPU, h.GOMAXPROCS, h.Seconds, h.Quick)
	}
	for _, r := range append(append([]*Saved(nil), a...), b...) {
		if shape(r.Host) != shape(ref) {
			return fmt.Errorf("compare: %s ran with %s, %s with %s", a[0].File, shape(ref), r.File, shape(r.Host))
		}
	}
	type rule struct {
		lower bool
		bound float64 // NaN: no bound
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range cfg.EndToEnd {
		rules[m.Name] = rule{m.Better == "lower", m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range cfg.PerLayer {
		rules[m.Name] = rule{m.Better == "lower", math.NaN()}
		order = append(order, m.Name)
	}
	values := func(set []*Saved, workload, metric string) []float64 {
		var v []float64
		for _, r := range set {
			if m, ok := r.Result.Metrics[metric]; ok && r.Host.Workload == workload {
				v = append(v, m.Value)
			}
		}
		return v
	}
	workloads := map[string]bool{}
	for _, r := range a {
		workloads[r.Host.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for wl := range workloads {
		names = append(names, wl)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "host: ncpu=%d gomaxprocs=%d; %d runs in A, %d in B\n", ref.NCPU, ref.GOMAXPROCS, len(a), len(b))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	regressed := false
	for _, wl := range names {
		for _, metric := range order {
			va, vb := values(a, wl, metric), values(b, wl, metric)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ru := rules[metric]
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			change := ratio(bm-am, math.Abs(am))
			worse := change
			if !ru.lower {
				worse = -change
			}
			verdict, bound := "", "-"
			if !math.IsNaN(ru.bound) {
				bound = fmt.Sprintf("%.0f%%", 100*ru.bound)
				spread := math.Max(ratio(a3-a1, math.Abs(am)), ratio(b3-b1, math.Abs(bm)))
				switch {
				case spread > ru.bound && overlap(va, vb):
					verdict = "unresolved"
				case worse > ru.bound:
					verdict = "REGRESSION"
					regressed = true
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\t%s\n",
				wl, metric, am, a1, a3, bm, b1, b3, 100*change, bound, verdict)
		}
	}
	tw.Flush()
	if regressed {
		return ErrRegression
	}
	return nil
}

// overlap reports whether the ranges of two sets of runs intersect.
// Separated sets settle a comparison however wide their spreads are.
func overlap(a, b []float64) bool {
	alo, ahi := minMax(a)
	blo, bhi := minMax(b)
	return alo <= bhi && blo <= ahi
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
