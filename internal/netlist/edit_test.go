package netlist

import (
	"reflect"
	"strings"
	"testing"
)

// editChain builds i0 -> g1(AND) -> f1(DFF) -> g2(OR) -> o, with a side
// input i1 feeding both gates.
func editChain(t *testing.T) *Circuit {
	t.Helper()
	c := New("edit")
	i0 := c.MustAdd("i0", KindInput)
	i1 := c.MustAdd("i1", KindInput)
	g1 := c.MustAdd("g1", KindAnd, i0.ID, i1.ID)
	f1 := c.MustAdd("f1", KindDFF, g1.ID)
	g2 := c.MustAdd("g2", KindOr, f1.ID, i1.ID)
	c.MustAdd("o", KindOutput, g2.ID)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestApplyEditsResizeSwap(t *testing.T) {
	c := editChain(t)
	res, err := c.ApplyEdits([]Edit{
		{Op: EditResize, Node: "g1", Drive: 2},
		{Op: EditSwapCell, Node: "g2", Cell: "OR"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.ByName("g1").Drive != 2 {
		t.Errorf("g1 drive = %d, want 2", c.ByName("g1").Drive)
	}
	if c.ByName("g2").Cell != "OR" {
		t.Errorf("g2 cell = %q, want OR", c.ByName("g2").Cell)
	}
	want := []NodeID{c.ByName("g1").ID, c.ByName("g2").ID}
	if !reflect.DeepEqual(res.Touched, want) {
		t.Errorf("touched = %v, want %v", res.Touched, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyEditsRewire(t *testing.T) {
	c := editChain(t)
	res, err := c.ApplyEdits([]Edit{{Op: EditRewire, Node: "g2", Pin: 1, Driver: "i0"}})
	if err != nil {
		t.Fatal(err)
	}
	g2 := c.ByName("g2")
	if g2.Fanins[1] != c.ByName("i0").ID {
		t.Errorf("g2 pin 1 = %d, want i0", g2.Fanins[1])
	}
	// The former driver i1 lost a consumer, so it is touched too.
	if want := []NodeID{c.ByName("i1").ID, g2.ID}; !reflect.DeepEqual(res.Touched, want) {
		t.Errorf("touched = %v, want %v (i1, g2)", res.Touched, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyEditsInsertRemoveFF(t *testing.T) {
	c := editChain(t)
	res, err := c.ApplyEdits([]Edit{{Op: EditInsertFF, Name: "eco_ff", Node: "g2", Pin: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ff := c.ByName("eco_ff")
	if ff == nil || ff.Kind != KindDFF {
		t.Fatalf("eco_ff not inserted: %v", ff)
	}
	if want := []NodeID{c.ByName("g2").ID, ff.ID}; !reflect.DeepEqual(res.Touched, want) {
		t.Errorf("touched = %v, want %v (g2, eco_ff)", res.Touched, want)
	}
	if c.ByName("g2").Fanins[1] != ff.ID {
		t.Error("g2 pin 1 should read eco_ff")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	res, err = c.ApplyEdits([]Edit{{Op: EditRemoveFF, Node: "eco_ff"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.ByName("eco_ff") != nil {
		t.Error("eco_ff should be removed")
	}
	if c.ByName("g2").Fanins[1] != c.ByName("i1").ID {
		t.Error("g2 pin 1 should read i1 again after removeff")
	}
	if want := []NodeID{c.ByName("g2").ID}; !reflect.DeepEqual(res.Touched, want) {
		t.Errorf("touched = %v, want %v (g2)", res.Touched, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyEditsErrors(t *testing.T) {
	cases := []Edit{
		{Op: EditResize, Node: "nope", Drive: 1},
		{Op: EditResize, Node: "g1", Drive: -1},
		{Op: EditRewire, Node: "g1", Pin: 7, Driver: "i0"},
		{Op: EditRewire, Node: "g1", Pin: 0, Driver: "nope"},
		{Op: EditRewire, Node: "g1", Pin: 0, Driver: "o"},
		{Op: EditRewire, Node: "g1", Pin: 0, Driver: "g1"},
		{Op: EditInsertFF, Name: "g2", Node: "g1", Pin: 0}, // duplicate name
		{Op: EditRemoveFF, Node: "g1"},                     // not a DFF
	}
	for _, e := range cases {
		c := editChain(t)
		if _, err := c.ApplyEdits([]Edit{e}); err == nil {
			t.Errorf("edit %s should fail", FormatEdit(e))
		}
	}
}

func TestParseFormatEditsRoundTrip(t *testing.T) {
	script := `
# an ECO
resize g1 2
swap g2 OR
rewire g2 1 i0
insertff eco_ff g2 0
removeff f1
`
	edits, err := ParseEdits(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 5 {
		t.Fatalf("parsed %d edits, want 5", len(edits))
	}
	again, err := ParseEdits(FormatEdits(edits))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edits, again) {
		t.Errorf("round trip mismatch:\n%v\n%v", edits, again)
	}
}

func TestParseEditsErrors(t *testing.T) {
	for _, script := range []string{
		"resize g1",        // missing drive
		"resize g1 x",      // bad drive
		"rewire g1 y i0",   // bad pin
		"explode g1",       // unknown op
		"insertff a b",     // missing pin
		"removeff",         // missing node
		"swap g1 CELL EXT", // extra field
	} {
		if _, err := ParseEdits(script); err == nil {
			t.Errorf("script %q should fail to parse", script)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("error should carry line number: %v", err)
		}
	}
}

func TestFanoutCone(t *testing.T) {
	c := editChain(t)
	byName := func(n string) NodeID { return c.ByName(n).ID }
	cone := FanoutCone(c, []NodeID{byName("g1")})
	// g1 -> f1 (stop: sequential). The cone must not leak past the DFF.
	want := []NodeID{byName("g1"), byName("f1")}
	sortWant := append([]NodeID(nil), want...)
	if sortWant[0] > sortWant[1] {
		sortWant[0], sortWant[1] = sortWant[1], sortWant[0]
	}
	if !reflect.DeepEqual(cone, sortWant) {
		t.Errorf("cone(g1) = %v, want %v", cone, sortWant)
	}

	// A sequential seed expands: f1 -> g2 -> o.
	cone = FanoutCone(c, []NodeID{byName("f1")})
	if len(cone) != 3 {
		t.Errorf("cone(f1) = %v, want f1,g2,o", cone)
	}
}
