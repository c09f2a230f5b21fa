package gen

import (
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/sta"
)

func TestPaperSuiteShapes(t *testing.T) {
	lib := celllib.Default()
	for _, spec := range PaperSuite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Gates < spec.TargetGates {
				t.Errorf("gates = %d, want >= %d", st.Gates, spec.TargetGates)
			}
			if st.Gates > spec.TargetGates*2 {
				t.Errorf("gates = %d, way over target %d", st.Gates, spec.TargetGates)
			}
			if st.DFFs < spec.TargetFFs {
				t.Errorf("FFs = %d, want >= %d", st.DFFs, spec.TargetFFs)
			}
			if st.Outputs == 0 || st.Inputs != max2(spec.NumInputs, 2) {
				t.Errorf("ports: %+v", st)
			}
			if _, err := c.TopoOrder(); err != nil {
				t.Errorf("generated circuit: %v", err)
			}
			if _, err := sta.Analyze(c, lib); err != nil {
				t.Errorf("STA fails: %v", err)
			}
		})
	}
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := SpecByName("s5378")
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	if a.String() != b.String() {
		t.Fatal("generation is not deterministic")
	}
}

func TestGenerateLoopPresence(t *testing.T) {
	spec, ok := SpecByName("s15850")
	if !ok || !spec.Loop {
		t.Fatal("s15850 should have a loop")
	}
	c := MustGenerate(spec)
	if c.ByName("ffloop") == nil || c.ByName("loopentry") == nil {
		t.Fatal("loop structure missing")
	}
}

func TestGenerateBypassPresence(t *testing.T) {
	spec, _ := SpecByName("s5378")
	c := MustGenerate(spec)
	if c.ByName("bypass") == nil || c.ByName("byjoin") == nil {
		t.Fatal("bypass structure missing")
	}
}

func TestCriticalPathInCriticalStages(t *testing.T) {
	// The worst path of every suite circuit must run through the critical
	// stages (cs1/cs2 naming), not the filler blocks.
	lib := celllib.Default()
	for _, spec := range PaperSuite() {
		c := MustGenerate(spec)
		r, err := sta.Analyze(c, lib)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		onCrit := false
		for _, id := range r.CriticalPath {
			name := c.Node(id).Name
			switch {
			case len(name) >= 2 && name[:2] == "cs",
				len(name) >= 4 && name[:4] == "wall", // the near-critical wall ring
				name == "loopentry", name == "byjoin":
				onCrit = true
			}
		}
		if !onCrit {
			t.Errorf("%s: critical path avoids the critical stages", spec.Name)
		}
	}
}

func TestSpecByName(t *testing.T) {
	if _, ok := SpecByName("nope"); ok {
		t.Fatal("unknown name accepted")
	}
	s, ok := SpecByName("pci_bridge")
	if !ok || s.Name != "pci_bridge" {
		t.Fatal("pci_bridge lookup failed")
	}
	b, ok := SpecByName("big50k")
	if !ok || b.TargetGates != 50000 {
		t.Fatal("big50k lookup failed")
	}
}

// TestBigSuiteGenerates checks the 50k/100k-gate tier actually reaches
// its size targets, stays structurally valid, and passes STA — the level
// the flow needs before handing their timing LPs to the sparse kernel.
func TestBigSuiteGenerates(t *testing.T) {
	lib := celllib.Default()
	for _, spec := range BigSuite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if testing.Short() && spec.TargetGates > 50000 {
				t.Skip("100k tier skipped under -short")
			}
			c, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Gates < spec.TargetGates {
				t.Errorf("gates = %d, want >= %d", st.Gates, spec.TargetGates)
			}
			if st.Gates > spec.TargetGates+spec.TargetGates/4 {
				t.Errorf("gates = %d, way over target %d", st.Gates, spec.TargetGates)
			}
			if st.DFFs < spec.TargetFFs {
				t.Errorf("FFs = %d, want >= %d", st.DFFs, spec.TargetFFs)
			}
			if _, err := c.TopoOrder(); err != nil {
				t.Errorf("generated circuit: %v", err)
			}
			if _, err := sta.Analyze(c, lib); err != nil {
				t.Errorf("STA fails: %v", err)
			}
		})
	}
}

func TestGenerateRejectsBadDepth(t *testing.T) {
	if _, err := Generate(Spec{Name: "x", Stage1Depth: 1, Stage2Depth: 5, TargetGates: 10, TargetFFs: 2}); err == nil {
		t.Fatal("bad depth accepted")
	}
}
