package netlist

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseNetlist fuzzes the .bench parser, the first parser a
// network submission reaches. Parse must never panic, every phase it
// accepts lies in [0,1), and on every input it accepts Write∘Parse must
// be idempotent: the written form parses again and writes back byte for
// byte.
func FuzzParseNetlist(f *testing.F) {
	for _, seed := range []string{
		"INPUT(a)\nINPUT(b)\nf1 = DFF(a)\nf2 = DFF(b)\ng1 = NAND(f1, f2)\ng2 = NOT(g1)\ng3 = AND(g2, f1)\nf3 = DFF(g3)\nOUTPUT(f3)\n",
		"# comment\nINPUT (x)\nOUTPUT (z)\nl1 = LATCH(g2) @0.5 [LATCH:1]\ng2 = NOT(x) [NOT:2]   # bound cell\nz = BUF(l1)\n",
		"INPUT(a)\nk = CONST1()\ng = XOR(a, k)\nf = DFF(g) [DFF] @0.25\nOUTPUT(f)\nOUTPUT(a)\n",
		"INPUT(a)\ng = NOT(h)\nh = NOT(g)\nOUTPUT(g)\n",
		"INPUT(a)\nf = DFF(a) @1\nl = LATCH(f) @NaN\nOUTPUT(l)\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		for _, n := range c.Nodes {
			if !(n.Phase >= 0 && n.Phase < 1) {
				t.Fatalf("node %s accepted with phase %g outside [0,1)", n.Name, n.Phase)
			}
		}
		var w1 bytes.Buffer
		if err := Write(&w1, c); err != nil {
			t.Fatalf("write of an accepted netlist: %v", err)
		}
		c2, err := Parse(bytes.NewReader(w1.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("written form does not parse: %v\n%s", err, w1.Bytes())
		}
		var w2 bytes.Buffer
		if err := Write(&w2, c2); err != nil {
			t.Fatalf("write of the re-parsed netlist: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("Write∘Parse not idempotent\n--- first ---\n%s\n--- second ---\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}

// FuzzParseEdits fuzzes the ECO edit-script parser, which reads the
// edits field of a network submission. ParseEdits must never panic, and
// on every script it accepts FormatEdits∘ParseEdits must be idempotent:
// the formatted script parses to the same edits and formats back byte
// for byte.
func FuzzParseEdits(f *testing.F) {
	for _, seed := range []string{
		"resize g1 2\nswap g2 NANDF\n",
		"# comment\nrewire g3 1 f1   # trailing\n\ninsertff vs_x g4 0\nremoveff f2\n",
		"resize g1 +03\nrewire g -1 h\n",
		"frob x\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		edits, err := ParseEdits(script)
		if err != nil {
			return
		}
		w1 := FormatEdits(edits)
		again, err := ParseEdits(w1)
		if err != nil {
			t.Fatalf("formatted script does not parse: %v\n%s", err, w1)
		}
		if !reflect.DeepEqual(again, edits) {
			t.Fatalf("FormatEdits∘ParseEdits changed the edits\n--- first ---\n%+v\n--- second ---\n%+v", edits, again)
		}
		if w2 := FormatEdits(again); w2 != w1 {
			t.Fatalf("FormatEdits∘ParseEdits not idempotent\n--- first ---\n%s\n--- second ---\n%s", w1, w2)
		}
	})
}
