package netlist

import (
	"bytes"
	"testing"
)

// FuzzParseNetlist fuzzes the .bench parser, the first parser a
// network submission reaches. Parse must never panic, and on every
// input it accepts Write∘Parse must be idempotent: the written form
// parses again and writes back byte for byte.
func FuzzParseNetlist(f *testing.F) {
	for _, seed := range []string{
		"INPUT(a)\nINPUT(b)\nf1 = DFF(a)\nf2 = DFF(b)\ng1 = NAND(f1, f2)\ng2 = NOT(g1)\ng3 = AND(g2, f1)\nf3 = DFF(g3)\nOUTPUT(f3)\n",
		"# comment\nINPUT (x)\nOUTPUT (z)\nl1 = LATCH(g2) @0.5 [LATCH:1]\ng2 = NOT(x) [NOT:2]   # bound cell\nz = BUF(l1)\n",
		"INPUT(a)\nk = CONST1()\ng = XOR(a, k)\nf = DFF(g) [DFF] @0.25\nOUTPUT(f)\nOUTPUT(a)\n",
		"INPUT(a)\ng = NOT(h)\nh = NOT(g)\nOUTPUT(g)\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
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
