package celllib

import (
	"strings"
	"testing"
	"testing/quick"

	"virtualsync/internal/netlist"
)

func TestDefaultLibraryValid(t *testing.T) {
	l := Default()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if l.BufferDelay() != 20 {
		t.Errorf("BufferDelay = %g, want 20", l.BufferDelay())
	}
	if l.BufferArea() != 1.0 {
		t.Errorf("BufferArea = %g, want 1", l.BufferArea())
	}
	if got := len(l.CellNames()); got != 16 {
		t.Errorf("CellNames = %d cells, want 16 (8 sizable + 8 fixed)", got)
	}
}

func TestAddCellValidation(t *testing.T) {
	l := NewLibrary("t")
	if _, err := l.AddCell("X", netlist.KindAnd, nil); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := l.AddCell("X", netlist.KindAnd, []Option{{10, 1}, {12, 2}}); err == nil {
		t.Error("non-decreasing delays accepted")
	}
	if _, err := l.AddCell("X", netlist.KindAnd, []Option{{12, 2}, {10, 1}}); err == nil {
		t.Error("decreasing areas accepted")
	}
	if _, err := l.AddCell("X", netlist.KindAnd, []Option{{-1, 2}}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := l.AddCell("X", netlist.KindAnd, []Option{{12, 1}, {10, 2}}); err != nil {
		t.Errorf("valid cell rejected: %v", err)
	}
	if _, err := l.AddCell("X", netlist.KindAnd, []Option{{12, 1}}); err == nil {
		t.Error("duplicate cell accepted")
	}
}

func node(kind netlist.Kind, drive int) *netlist.Node {
	return &netlist.Node{Name: "n", Kind: kind, Drive: drive}
}

func TestDelayAndArea(t *testing.T) {
	l := Default()
	n := node(netlist.KindNand, 1)
	d, err := l.Delay(n)
	if err != nil || d != 17 {
		t.Fatalf("Delay = %g, %v; want 17", d, err)
	}
	a, err := l.Area(n)
	if err != nil || a != 1.7 {
		t.Fatalf("Area = %g, %v; want 1.7", a, err)
	}
	ff := node(netlist.KindDFF, 0)
	if d, err := l.Delay(ff); err != nil || d != 0 {
		t.Fatalf("DFF Delay = %g, %v; want 0", d, err)
	}
	if a, err := l.Area(ff); err != nil || a != 6.0 {
		t.Fatalf("DFF Area = %g, %v; want 6", a, err)
	}
	bad := node(netlist.KindNand, 9)
	if _, err := l.Delay(bad); err == nil {
		t.Fatal("out-of-range drive accepted")
	}
	unknown := &netlist.Node{Name: "n", Kind: netlist.KindAnd, Cell: "NOPE"}
	if _, err := l.Delay(unknown); err == nil {
		t.Fatal("unknown cell accepted")
	}
}

func TestDelayRange(t *testing.T) {
	l := Default()
	min, max, err := l.DelayRange(node(netlist.KindXor, 0))
	if err != nil || min != 18 || max != 36 {
		t.Fatalf("DelayRange = %g..%g, %v", min, max, err)
	}
	if min, max, err := l.DelayRange(node(netlist.KindDFF, 0)); err != nil || min != 0 || max != 0 {
		t.Fatalf("DFF DelayRange = %g..%g, %v", min, max, err)
	}
}

func TestSlowestAtMost(t *testing.T) {
	l := Default()
	n := node(netlist.KindBuf, 0) // options 20, 14, 10, 7, 5, 3, 2
	for _, tc := range []struct {
		budget float64
		drive  int
		delay  float64
		ok     bool
	}{
		{25, 0, 20, true},
		{20, 0, 20, true},
		{15, 1, 14, true},
		{10, 2, 10, true},
		{9, 3, 7, true},
		{1, 6, 2, false},
	} {
		d, dl, ok := l.SlowestAtMost(n, tc.budget)
		if d != tc.drive || dl != tc.delay || ok != tc.ok {
			t.Errorf("SlowestAtMost(%g) = %d,%g,%v; want %d,%g,%v",
				tc.budget, d, dl, ok, tc.drive, tc.delay, tc.ok)
		}
	}
}

func TestFasterSlowerDrive(t *testing.T) {
	l := Default()
	n := node(netlist.KindNot, 0)
	d, delay, da, ok := l.FasterDrive(n)
	if !ok || d != 1 || delay != 11 || da <= 0 {
		t.Fatalf("FasterDrive = %d,%g,%g,%v", d, delay, da, ok)
	}
	if _, _, _, ok := l.SlowerDrive(n); ok {
		t.Fatal("SlowerDrive at drive 0 should fail")
	}
	n.Drive = 2
	if _, _, _, ok := l.FasterDrive(n); ok {
		t.Fatal("FasterDrive at max drive should fail")
	}
	d, delay, da, ok = l.SlowerDrive(n)
	if !ok || d != 1 || delay != 11 || da >= 0 {
		t.Fatalf("SlowerDrive = %d,%g,%g,%v", d, delay, da, ok)
	}
}

func TestCircuitArea(t *testing.T) {
	l := Default()
	c := netlist.New("a")
	in := c.MustAdd("i", netlist.KindInput)
	g := c.MustAdd("g", netlist.KindNand, in.ID, in.ID)
	g.Drive = 2
	c.MustAdd("f", netlist.KindDFF, g.ID)
	got, err := l.CircuitArea(c)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.5 + 6.0
	if got != want {
		t.Fatalf("CircuitArea = %g, want %g", got, want)
	}
}

func TestUniformLibrary(t *testing.T) {
	l := Uniform(3, SeqTiming{Tcq: 3, Tsu: 1, Th: 1, Area: 4}, SeqTiming{Tcq: 2, Tdq: 1, Tsu: 1, Th: 1, Area: 3})
	d, err := l.Delay(node(netlist.KindXor, 0))
	if err != nil || d != 3 {
		t.Fatalf("uniform Delay = %g, %v", d, err)
	}
	if l.FF.Tcq != 3 || l.FF.Tsu != 1 {
		t.Fatalf("uniform FF timing = %+v", l.FF)
	}
}

func TestLibraryFormatRoundTrip(t *testing.T) {
	l := Default()
	var sb strings.Builder
	if err := WriteLibrary(&sb, l); err != nil {
		t.Fatal(err)
	}
	l2, err := ParseLibraryString(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if l2.FF != l.FF || l2.Latch != l.Latch {
		t.Fatalf("seq timing changed: %+v vs %+v", l2.FF, l.FF)
	}
	for _, name := range l.CellNames() {
		c1, c2 := l.Cell(name), l2.Cell(name)
		if c2 == nil || c1.Kind != c2.Kind || len(c1.Options) != len(c2.Options) {
			t.Fatalf("cell %q changed", name)
		}
		if c1.Sigma != c2.Sigma {
			t.Fatalf("cell %q sigma changed: %g vs %g", name, c1.Sigma, c2.Sigma)
		}
		for i := range c1.Options {
			if c1.Options[i] != c2.Options[i] {
				t.Fatalf("cell %q option %d changed", name, i)
			}
		}
	}
}

func TestSigmaFields(t *testing.T) {
	l := Default()
	if s := l.SigmaFor(node(netlist.KindBuf, 0)); s != 0.05 {
		t.Errorf("BUF sigma = %g, want 0.05", s)
	}
	if s := l.SigmaFor(node(netlist.KindNand, 1)); s != 0.04 {
		t.Errorf("NAND sigma = %g, want 0.04", s)
	}
	if s := l.SigmaFor(node(netlist.KindDFF, 0)); s != l.FF.Sigma {
		t.Errorf("DFF sigma = %g, want %g", s, l.FF.Sigma)
	}
	if s := l.SigmaFor(node(netlist.KindInput, 0)); s != 0 {
		t.Errorf("port sigma = %g, want 0", s)
	}
	// A sigma-free library parses (back-compat) and reports zero.
	src := "library x\nff tcq=1 tsu=1 th=0\nlatch tcq=1 tdq=1 tsu=1 th=0\n"
	for _, k := range []netlist.Kind{
		netlist.KindBuf, netlist.KindNot, netlist.KindAnd, netlist.KindNand,
		netlist.KindOr, netlist.KindNor, netlist.KindXor, netlist.KindXnor,
	} {
		src += "cell " + k.String() + " kind=" + k.String() + " delay=1 area=1\n"
	}
	plain, err := ParseLibraryString(src)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SigmaFor(node(netlist.KindBuf, 0)) != 0 || plain.FF.Sigma != 0 {
		t.Error("sigma-free library reports non-zero sigma")
	}
	if _, err := ParseLibraryString("library x\ncell BUF kind=BUF delay=1 area=1 sigma=-1\n"); err == nil {
		t.Error("negative sigma accepted")
	}
	sc := SeqTiming{Tcq: 10, Tdq: 4, Tsu: 2, Th: 1, Area: 3, Sigma: 0.1}.Scaled(2)
	if sc.Tcq != 20 || sc.Tdq != 8 || sc.Tsu != 4 || sc.Th != 2 || sc.Area != 3 || sc.Sigma != 0.1 {
		t.Errorf("SeqTiming.Scaled wrong: %+v", sc)
	}
}

func TestParseLibraryErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"no header", "cell BUF kind=BUF delay=1 area=1\n"},
		{"bad directive", "library x\nfrob y\n"},
		{"bad kind", "library x\ncell Q kind=Q delay=1 area=1\n"},
		{"mismatched lists", "library x\ncell BUF kind=BUF delay=1,2 area=1\n"},
		{"bad number", "library x\ncell BUF kind=BUF delay=z area=1\n"},
		{"bad attr", "library x\ncell BUF kind=BUF frob=1\n"},
		{"bad seq attr", "library x\nff frob=1\n"},
		{"bad seq val", "library x\nff tcq=z\n"},
		{"missing cells", "library x\nff tcq=1 tsu=1 th=1\nlatch tcq=1 tdq=1 tsu=1 th=1\n"},
	}
	for _, tc := range cases {
		if _, err := ParseLibraryString(tc.src); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.src)
		}
	}
}

func TestPropertySlowestAtMostIsSafe(t *testing.T) {
	l := Default()
	f := func(budget float64, kindSel uint8) bool {
		kinds := []netlist.Kind{
			netlist.KindBuf, netlist.KindNot, netlist.KindAnd, netlist.KindNand,
			netlist.KindOr, netlist.KindNor, netlist.KindXor, netlist.KindXnor,
		}
		k := kinds[int(kindSel)%len(kinds)]
		if budget < 0 {
			budget = -budget
		}
		budget = 5 + budget - float64(int(budget/100))*100 // fold into [5,105)
		n := node(k, 0)
		drive, delay, ok := l.SlowestAtMost(n, budget)
		c := l.Cell(k.String())
		if drive < 0 || drive >= len(c.Options) || delay != c.Options[drive].Delay {
			return false
		}
		if ok && delay > budget+1e-9 {
			return false // claimed to fit but doesn't
		}
		if !ok && c.MinDelay() <= budget {
			return false // a fitting option existed but was not found
		}
		// Maximality: any weaker drive must exceed the budget.
		if ok && drive > 0 && c.Options[drive-1].Delay <= budget {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
