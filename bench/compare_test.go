package bench

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1.5, 2.25, 8, 4}, [3]float64{1.875, 4, 6.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
		if m := median(c.xs); m != c.want[1] {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.want[1])
		}
	}
}

func saved(ncpu int, vals ...float64) []*Saved {
	var out []*Saved
	for i, v := range vals {
		out = append(out, &Saved{
			File:   fmt.Sprintf("run%d", i),
			Host:   Host{NCPU: ncpu, GOMAXPROCS: ncpu, Workload: "flow"},
			Result: Result{Metrics: map[string]Metric{"op_p50_ms": {Value: v, Unit: "ms"}}},
		})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	cfg := &Config{EndToEnd: []ConfigMetric{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	base := saved(2, 100, 101, 99, 100, 102)
	for _, c := range []struct {
		name    string
		b       []*Saved
		verdict string
		err     error
	}{
		{"same", saved(2, 100, 99, 101, 100, 100), "ok", nil},
		{"faster", saved(2, 60, 61, 59, 60, 62), "ok", nil},
		{"slower", saved(2, 130, 131, 129, 130, 132), "REGRESSION", ErrRegression},
		{"noisy", saved(2, 60, 140, 100, 70, 130), "unresolved", nil},
	} {
		var out strings.Builder
		err := Compare(&out, cfg, base, c.b)
		if !errors.Is(err, c.err) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.err)
		}
		if !strings.Contains(out.String(), " "+c.verdict+"\n") {
			t.Errorf("%s: want verdict %q in\n%s", c.name, c.verdict, out.String())
		}
	}
	for name, differ := range map[string]func(*Host){
		"ncpu":       func(h *Host) { h.NCPU = 4 },
		"gomaxprocs": func(h *Host) { h.GOMAXPROCS = 1 },
		"seconds":    func(h *Host) { h.Seconds = 5 },
		"quick":      func(h *Host) { h.Quick = true },
	} {
		b := saved(2, 100)
		differ(&b[0].Host)
		if err := Compare(io.Discard, cfg, base, b); err == nil || errors.Is(err, ErrRegression) {
			t.Errorf("sets with different %s compared: %v", name, err)
		}
	}
}
