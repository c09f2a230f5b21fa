package celllib

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"virtualsync/internal/netlist"
)

// This file implements a compact text format for libraries:
//
//	library vs45
//	ff    tcq=30 tsu=12 th=4 area=6
//	latch tcq=16 tdq=14 tsu=10 th=4 area=4.5
//	cell BUF kind=BUF delay=20,14,10 area=1,1.4,2
//
// Drive options are listed slowest-first, matching drive index order.

// ParseLibrary reads a library in the text format above.
func ParseLibrary(r io.Reader) (*Library, error) {
	sc := bufio.NewScanner(r)
	var l *Library
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "library":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: library needs a name", lineNo)
			}
			l = NewLibrary(fields[1])
		case "ff", "latch":
			if l == nil {
				return nil, fmt.Errorf("line %d: %s before library header", lineNo, fields[0])
			}
			t, err := parseSeqTiming(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if fields[0] == "ff" {
				l.FF = t
			} else {
				l.Latch = t
			}
		case "cell":
			if l == nil {
				return nil, fmt.Errorf("line %d: cell before library header", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: cell needs a name", lineNo)
			}
			name := fields[1]
			kind := netlist.KindInvalid
			var delays, areas []float64
			sigma := 0.0
			for _, f := range fields[2:] {
				kv := strings.SplitN(f, "=", 2)
				if len(kv) != 2 {
					return nil, fmt.Errorf("line %d: malformed attribute %q", lineNo, f)
				}
				switch kv[0] {
				case "sigma":
					v, err := parseNumber(kv[1])
					if err != nil || v < 0 {
						return nil, fmt.Errorf("line %d: bad sigma %q", lineNo, kv[1])
					}
					sigma = v
				case "kind":
					k, ok := netlist.KindFromString(kv[1])
					if !ok {
						return nil, fmt.Errorf("line %d: unknown kind %q", lineNo, kv[1])
					}
					kind = k
				case "delay":
					var err error
					delays, err = parseFloats(kv[1])
					if err != nil {
						return nil, fmt.Errorf("line %d: %v", lineNo, err)
					}
				case "area":
					var err error
					areas, err = parseFloats(kv[1])
					if err != nil {
						return nil, fmt.Errorf("line %d: %v", lineNo, err)
					}
				default:
					return nil, fmt.Errorf("line %d: unknown attribute %q", lineNo, kv[0])
				}
			}
			if kind == netlist.KindInvalid {
				if k, ok := netlist.KindFromString(name); ok {
					kind = k
				} else {
					return nil, fmt.Errorf("line %d: cell %q needs kind=", lineNo, name)
				}
			}
			if len(delays) == 0 || len(delays) != len(areas) {
				return nil, fmt.Errorf("line %d: cell %q needs matching delay= and area= lists", lineNo, name)
			}
			opts := make([]Option, len(delays))
			for i := range delays {
				opts[i] = Option{Delay: delays[i], Area: areas[i]}
			}
			c, err := l.AddCell(name, kind, opts)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			c.Sigma = sigma
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if l == nil {
		return nil, fmt.Errorf("celllib: empty library file")
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// ParseLibraryString is ParseLibrary over a string.
func ParseLibraryString(s string) (*Library, error) {
	return ParseLibrary(strings.NewReader(s))
}

func parseSeqTiming(fields []string) (SeqTiming, error) {
	var t SeqTiming
	for _, f := range fields {
		kv := strings.SplitN(f, "=", 2)
		if len(kv) != 2 {
			return t, fmt.Errorf("malformed attribute %q", f)
		}
		v, err := parseNumber(kv[1])
		if err != nil {
			return t, fmt.Errorf("bad value in %q: %v", f, err)
		}
		switch kv[0] {
		case "tcq":
			t.Tcq = v
		case "tdq":
			t.Tdq = v
		case "tsu":
			t.Tsu = v
		case "th":
			t.Th = v
		case "area":
			t.Area = v
		case "sigma":
			t.Sigma = v
		default:
			return t, fmt.Errorf("unknown attribute %q", kv[0])
		}
	}
	return t, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := parseNumber(p)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseNumber reads one numeric attribute. Every library value is a
// delay, an area or a spread, so NaN and ±Inf are rejected here: NaN
// slips past every ordering check downstream.
func parseNumber(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// WriteLibrary emits the library in the format accepted by ParseLibrary.
func WriteLibrary(w io.Writer, l *Library) error {
	bw := bufio.NewWriter(w)
	sigmaAttr := func(s float64) string {
		if s == 0 {
			return ""
		}
		return " sigma=" + strconv.FormatFloat(s, 'g', -1, 64)
	}
	fmt.Fprintf(bw, "library %s\n", l.Name)
	fmt.Fprintf(bw, "ff tcq=%g tsu=%g th=%g area=%g%s\n",
		l.FF.Tcq, l.FF.Tsu, l.FF.Th, l.FF.Area, sigmaAttr(l.FF.Sigma))
	fmt.Fprintf(bw, "latch tcq=%g tdq=%g tsu=%g th=%g area=%g%s\n",
		l.Latch.Tcq, l.Latch.Tdq, l.Latch.Tsu, l.Latch.Th, l.Latch.Area, sigmaAttr(l.Latch.Sigma))
	names := make([]string, 0, len(l.cells))
	for n := range l.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := l.cells[n]
		ds := make([]string, len(c.Options))
		as := make([]string, len(c.Options))
		for i, o := range c.Options {
			ds[i] = strconv.FormatFloat(o.Delay, 'g', -1, 64)
			as[i] = strconv.FormatFloat(o.Area, 'g', -1, 64)
		}
		fmt.Fprintf(bw, "cell %s kind=%s delay=%s area=%s%s\n",
			c.Name, c.Kind, strings.Join(ds, ","), strings.Join(as, ","), sigmaAttr(c.Sigma))
	}
	return bw.Flush()
}
