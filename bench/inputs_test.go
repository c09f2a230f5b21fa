package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
)

// inputsDigest serializes every input the paper configuration derives,
// without optimizing anything: the circuits, the first stimulus of each
// check, the ECO script and both clients' service plans with their
// renamed netlists.
func inputsDigest(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := paperConfig()
	var b bytes.Buffer
	circuits := append(append(append([]gen.Spec{cfg.eco}, cfg.flow...), cfg.verify...), cfg.service...)
	texts := map[string]string{}
	for i, s := range circuits {
		c := gen.MustGenerate(s)
		text, err := benchText(c)
		if err != nil {
			t.Fatal(err)
		}
		texts[s.Name] = text
		fmt.Fprintf(&b, "%s%v\n", text, stimulus(c, seed, uint64(i), 4))
	}
	r := &run{lib: celllib.Default(), tr: newTracer(false), n: map[string]float64{}}
	base, err := r.baseline(gen.MustGenerate(cfg.eco), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(netlist.FormatEdits(resizeScript(base, r.lib, 11)))
	for c := 0; c < serviceClients; c++ {
		for _, q := range servicePlan(seed, cfg.serviceFollowUps[c], 0, c) {
			fmt.Fprintf(&b, "%+v\n", q)
			if q.kind == coldJob {
				b.WriteString(renameNets(texts[cfg.service[q.circuit].Name], q.prefix))
			}
		}
	}
	return b.Bytes()
}

func TestInputsFollowSeed(t *testing.T) {
	a, again, other := inputsDigest(t, 1), inputsDigest(t, 1), inputsDigest(t, 2)
	if !bytes.Equal(a, again) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, other) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
}

// TestRenameNetsKeepsNodeOrder pins what makes renamed service jobs cost
// the optimizer the same work: the renamed netlist parses to the same
// nodes, in the same order, with only the names changed.
func TestRenameNetsKeepsNodeOrder(t *testing.T) {
	text, err := benchText(gen.MustGenerate(specs("s15850")[0]))
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "j3_00beef_"
	a, err := netlist.Parse(strings.NewReader(text), "x")
	if err != nil {
		t.Fatal(err)
	}
	b, err := netlist.Parse(strings.NewReader(renameNets(text, prefix)), "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("%d nodes renamed to %d", len(a.Nodes), len(b.Nodes))
	}
	for i, n := range a.Nodes {
		m := b.Nodes[i]
		if m.Name != prefix+n.Name || m.Kind != n.Kind || fmt.Sprint(m.Fanins) != fmt.Sprint(n.Fanins) ||
			m.Cell != n.Cell || m.Drive != n.Drive || m.Phase != n.Phase {
			t.Fatalf("node %d: %+v renamed to %+v", i, *n, *m)
		}
	}
}

// TestServicePlanOrder checks the plan's invariants: a plan holds 10
// cold, 6 ECO and 4 repeat jobs over the five circuits, every seed sends
// the same jobs, and every follow-up comes at least two requests after
// the cold job it names.
func TestServicePlanOrder(t *testing.T) {
	cfg := paperConfig()
	jobs := func(seed int64) map[request]int {
		m := map[request]int{}
		for c, follow := range cfg.serviceFollowUps {
			p := servicePlan(seed, follow, 0, c)
			cold := map[int]int{}
			for i, q := range p {
				if q.kind == coldJob {
					cold[q.circuit] = i
				} else if at, ok := cold[q.circuit]; !ok || i-at < 2 {
					t.Fatalf("seed %d client %d: follow-up %d of circuit %d comes %d after its cold job", seed, c, i, q.circuit, i-at)
				}
				m[request{kind: q.kind, circuit: q.circuit}]++
			}
		}
		return m
	}
	want := jobs(1)
	kinds := map[jobKind]int{}
	for q, n := range want {
		kinds[q.kind] += n
	}
	if len(cfg.service) != 5 || kinds[coldJob] != 10 || kinds[ecoJob] != 6 || kinds[repeatJob] != 4 {
		t.Fatalf("plan over %d circuits holds %d cold, %d ECO and %d repeat jobs, want 10, 6 and 4 over 5",
			len(cfg.service), kinds[coldJob], kinds[ecoJob], kinds[repeatJob])
	}
	for seed := int64(2); seed <= 20; seed++ {
		if got := jobs(seed); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: plan holds %v, want %v", seed, got, want)
		}
	}
}
