package expt

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// FormatTable1 renders the rows in the layout of the paper's Table 1,
// with an extra column reporting the simulation-based equivalence check.
func FormatTable1(rows []*CircuitResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Results of VirtualSync\n")
	fmt.Fprintf(&b, "%-12s %6s %7s | %5s %6s | %4s %4s %4s %6s %8s | %8s %6s\n",
		"Circuit", "ns", "ng", "ncs", "ncg", "nf", "nl", "nb", "nt", "na", "t(s)", "equiv")
	fmt.Fprintln(&b, strings.Repeat("-", 100))
	for _, r := range rows {
		equiv := "-"
		if r.EquivChecked {
			if r.EquivOK {
				equiv = "ok"
			} else {
				equiv = fmt.Sprintf("FAIL(%d)", r.Mismatches)
			}
		}
		fmt.Fprintf(&b, "%-12s %6d %7d | %5d %6d | %4d %4d %4d %5.1f%% %+7.2f%% | %8.1f %6s\n",
			r.Name, r.NS, r.NG, r.NCS, r.NCG, r.NF, r.NL, r.NB, r.NT, r.NA,
			r.Runtime.Seconds(), equiv)
	}
	avg := 0.0
	max := 0.0
	for _, r := range rows {
		avg += r.NT
		if r.NT > max {
			max = r.NT
		}
	}
	if len(rows) > 0 {
		avg /= float64(len(rows))
	}
	fmt.Fprintln(&b, strings.Repeat("-", 100))
	fmt.Fprintf(&b, "period reduction: max %.1f%%, average %.1f%% (paper: max 11.5%%, average 3.1%%)\n", max, avg)
	return b.String()
}

// fig6BarPerUnit is how many '#' Fig. 6 draws per delay unit. The scale
// is fixed, so one circuit's count never redraws the other bars.
const fig6BarPerUnit = 10

// FormatFig6 renders the sequential-delay-unit counts before and after
// buffer replacement (paper Fig. 6).
func FormatFig6(rows []*CircuitResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 6: sequential delay units before/after buffer replacement")
	fmt.Fprintf(&b, "%-12s %8s %8s\n", "Circuit", "before", "after")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %8d %s\n", r.Name, r.UnitsBeforeReplace, r.UnitsAfterReplace,
			strings.Repeat("#", fig6BarPerUnit*max(r.UnitsAfterReplace, 0)))
	}
	return b.String()
}

// FormatFig7 renders the inserted-area ratio after buffer replacement
// (paper Fig. 7).
func FormatFig7(rows []*CircuitResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 7: inserted area after replacement as % of before")
	fmt.Fprintf(&b, "%-12s %10s\n", "Circuit", "area ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9.1f%% %s\n", r.Name, r.AreaRatioPct, bar(r.AreaRatioPct, 40, 100))
	}
	return b.String()
}

// FormatFig8 renders the area comparison against retiming&sizing at the
// same clock period (paper Fig. 8), normalized to the baseline area.
func FormatFig8(rows []*CircuitResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 8: area vs retiming&sizing at the same clock period (baseline = 1.0)")
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "Circuit", "retime&size", "VirtualSync")
	for _, r := range rows {
		if r.BaselineAreaSamePeriod <= 0 {
			fmt.Fprintf(&b, "%-12s %10s %10s\n", r.Name, "1.000", "n/a")
			continue
		}
		rel := r.AreaSamePeriod / r.BaselineAreaSamePeriod
		fmt.Fprintf(&b, "%-12s %10.3f %10.3f %s\n", r.Name, 1.0, rel, bar(rel, 40, 1.3))
	}
	return b.String()
}

// FormatFig1 renders the motivating-example ladder.
func FormatFig1(f *Fig1Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 1: motivating example (paper: 21 / 16 / 11 / 8.5)")
	fmt.Fprintf(&b, "  original circuit:      T = %6.2f\n", f.Original)
	fmt.Fprintf(&b, "  after sizing:          T = %6.2f\n", f.Sized)
	fmt.Fprintf(&b, "  after retiming&sizing: T = %6.2f (margined baseline %.2f)\n", f.Retimed, f.MarginedRetimed)
	fmt.Fprintf(&b, "  after VirtualSync:     T = %6.2f (%.1f%% below the margined baseline)\n",
		f.VirtualSync, 100*(f.MarginedRetimed-f.VirtualSync)/f.MarginedRetimed)
	return b.String()
}

// FormatFig2 renders the delay-unit transfer characteristics as aligned
// columns (paper Fig. 2).
func FormatFig2(points []Fig2Point) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 2: delay-unit transfer characteristics (output arrival vs input arrival)")
	fmt.Fprintf(&b, "%8s %10s %10s %10s\n", "in", "buffer", "flip-flop", "latch")
	for _, p := range points {
		ff, lt := "   fence", "   fence"
		if p.FFOut == p.FFOut { // not NaN
			ff = fmt.Sprintf("%10.2f", p.FFOut)
		}
		if p.LatchOut == p.LatchOut {
			lt = fmt.Sprintf("%10.2f", p.LatchOut)
		}
		fmt.Fprintf(&b, "%8.2f %10.2f %10s %10s\n", p.In, p.BufferOut, ff, lt)
	}
	return b.String()
}

// bar renders a proportional ASCII bar.
func bar(v float64, width int, max float64) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// FormatFig3 renders the anchor worked example.
func FormatFig3(f *Fig3Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 3: relative timing references (anchors) at T=10")
	fmt.Fprintf(&b, "  classic baseline period: %.2f\n", f.BaselinePeriod)
	fmt.Fprintln(&b, "  anchors crossed per consumer:")
	for _, name := range sortedKeysInt(f.Lambdas) {
		if f.Lambdas[name] > 0 {
			fmt.Fprintf(&b, "    %-6s lambda=%d\n", name, f.Lambdas[name])
		}
	}
	fmt.Fprintln(&b, "  converted boundary arrivals (must lie in [th, T-tsu]):")
	for _, name := range sortedKeysF(f.SinkLate) {
		fmt.Fprintf(&b, "    %-6s late %6.2f  early %6.2f\n", name, f.SinkLate[name], f.SinkEarly[name])
	}
	fmt.Fprintf(&b, "  functional equivalence: %v\n", f.EquivOK)
	return b.String()
}

func sortedKeysInt(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysF(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteCSV emits the suite results as machine-readable CSV (one row per
// circuit, same quantities as Table 1 plus the figure data), for external
// plotting.
func WriteCSV(w io.Writer, rows []*CircuitResult) error {
	cw := csv.NewWriter(w)
	header := []string{
		"circuit", "ns", "ng", "ncs", "ncg", "nf", "nl", "nb",
		"nt_pct", "na_pct", "runtime_s", "wall_s",
		"baseline_period", "period", "baseline_area", "area",
		"units_before_replace", "units_after_replace", "area_ratio_pct",
		"area_same_period", "baseline_area_same_period",
		"equiv_checked", "equiv_ok", "mismatches",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	d := strconv.Itoa
	for _, r := range rows {
		rec := []string{
			r.Name, d(r.NS), d(r.NG), d(r.NCS), d(r.NCG), d(r.NF), d(r.NL), d(r.NB),
			f(r.NT), f(r.NA), f(r.Runtime.Seconds()), f(r.Wall.Seconds()),
			f(r.BaselinePeriod), f(r.Period), f(r.BaselineArea), f(r.Area),
			d(r.UnitsBeforeReplace), d(r.UnitsAfterReplace), f(r.AreaRatioPct),
			f(r.AreaSamePeriod), f(r.BaselineAreaSamePeriod),
			strconv.FormatBool(r.EquivChecked), strconv.FormatBool(r.EquivOK), d(r.Mismatches),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
