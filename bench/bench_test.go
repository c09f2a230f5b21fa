package bench

import (
	"context"
	"regexp"
	"slices"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestQuickWorkloads runs every workload at smoke scale, untraced and
// traced, and requires each to pass its own correctness checks and to
// emit exactly the metrics BENCHMARK.json lists, with their units.
func TestQuickWorkloads(t *testing.T) {
	bj, err := LoadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, Workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, package runs %v", names, Workloads)
	}
	for _, trace := range []bool{false, true} {
		start := time.Now()
		for _, w := range Workloads {
			rep, err := Run(context.Background(), Options{Workload: w, Seed: 1, Seconds: 1, Trace: trace, Quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
				if len(rep.Spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
				}
			}
			if !trace {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
		if d := time.Since(start); !trace && d > 20*time.Second {
			t.Errorf("quick scale took %v for all workloads, want under 20s", d)
		}
	}
}
