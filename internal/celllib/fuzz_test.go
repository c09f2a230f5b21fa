package celllib

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseLibrary fuzzes the cell-library parser, which reads the
// library field of a network submission. ParseLibrary must never panic,
// every value of a library it accepts must be finite, and
// WriteLibrary∘ParseLibrary must be idempotent: the written form parses
// again and writes back byte for byte.
func FuzzParseLibrary(f *testing.F) {
	var def strings.Builder
	if err := WriteLibrary(&def, Default()); err != nil {
		f.Fatal(err)
	}
	tiny := "# tiny\nlibrary t\nff tcq=3 tsu=1 th=1 area=6\nlatch tcq=2 tdq=1 tsu=1 th=1 area=4\n" +
		"cell BUF delay=2 area=1\ncell NOT delay=1 area=1\ncell AND delay=3,2 area=1,2 sigma=0.1\n" +
		"cell NAND delay=2 area=1\ncell OR delay=3 area=1\ncell NOR delay=2 area=1\n" +
		"cell XOR delay=4 area=2\ncell XNOR kind=XNOR delay=4 area=2\n"
	for _, seed := range []string{def.String(), tiny, strings.Replace(tiny, "sigma=0.1", "sigma=NaN", 1)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l, err := ParseLibraryString(src)
		if err != nil {
			return
		}
		finite := func(what string, vs ...float64) {
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s accepted with non-finite value %g", what, v)
				}
			}
		}
		for _, s := range []SeqTiming{l.FF, l.Latch} {
			finite("sequential timing", s.Tcq, s.Tdq, s.Tsu, s.Th, s.Area, s.Sigma)
		}
		for _, name := range l.CellNames() {
			c := l.Cell(name)
			finite("cell "+name, c.Sigma)
			for _, o := range c.Options {
				finite("cell "+name, o.Delay, o.Area)
			}
		}
		var w1 strings.Builder
		if err := WriteLibrary(&w1, l); err != nil {
			t.Fatalf("write of an accepted library: %v", err)
		}
		l2, err := ParseLibraryString(w1.String())
		if err != nil {
			t.Fatalf("written form does not parse: %v\n%s", err, w1.String())
		}
		var w2 strings.Builder
		if err := WriteLibrary(&w2, l2); err != nil {
			t.Fatalf("write of the re-parsed library: %v", err)
		}
		if w1.String() != w2.String() {
			t.Fatalf("WriteLibrary∘ParseLibrary not idempotent\n--- first ---\n%s\n--- second ---\n%s", w1.String(), w2.String())
		}
	})
}
