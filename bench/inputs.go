package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/prng"
	"virtualsync/internal/sim"
)

// config fixes the circuits each workload runs on. The circuits are the
// paper suite's, unchanged, for every seed: the optimizer's cost on
// random circuits of one shape varies about sevenfold (s5378-shaped
// netlists from ten generator seeds took 1.4 to 10.2 s), which would
// swamp any change under test within one run. The seed instead draws the
// stimulus of every check and the net names and order of the service
// requests.
type config struct {
	flow, verify, service []gen.Spec
	eco                   gen.Spec
	// serviceFollowUps gives, per service client, the follow-up job of
	// each circuit's cold job: 'E' an ECO job, 'R' an exact repeat.
	serviceFollowUps [serviceClients]string
	// A run sets up at least setupReps times, and until the set-ups
	// total minSetup, for a median setup_s.
	setupReps int
	minSetup  time.Duration
	// The rates size the timed work per second of --seconds on the
	// reference host. The work is a fixed count, not a deadline, so two
	// commits always measure the same operations.
	flowRoundsPerS, ecoEditsPerS, verifyChecksPerS, servicePlansPerS float64
}

func paperConfig() config {
	return config{
		// s5378: many short probes; mem_ctrl: fewer, longer ones with a
		// deep branch-and-bound.
		flow:    specs("s5378", "mem_ctrl"),
		eco:     specs("s5378")[0],
		verify:  specs("s5378", "ac97_ctrl"),
		service: specs("s15850", "ac97_ctrl", "s5378", "systemcdes", "s13207"),
		// 10 cold, 6 ECO and 4 repeat jobs. s13207 takes no ECO job: its
		// ECO resize re-optimizes for 14.5 s on the reference host, over
		// three times its cold run and as long as the six ECO jobs here
		// together.
		serviceFollowUps: [serviceClients]string{"EEERR", "REEER"},

		setupReps:        3,
		minSetup:         500 * time.Millisecond,
		flowRoundsPerS:   1 / 7.0,
		ecoEditsPerS:     0.7,
		verifyChecksPerS: 12,
		servicePlansPerS: 1 / 27.0,
	}
}

// quickSpec is a small s5378-shaped circuit whose whole flow takes a few
// tens of milliseconds: the smoke scale the tests run.
var quickSpec = gen.Spec{Name: "quick", Seed: 11, TargetGates: 60, TargetFFs: 8,
	Stage1Depth: 6, Stage2Depth: 4, StageWidth: 2, FastBypass: true, WallFrac: 0.9, NumInputs: 4}

func quickConfig() config {
	q := []gen.Spec{quickSpec}
	return config{flow: q, eco: quickSpec, verify: q, service: []gen.Spec{quickSpec, quickSpec},
		serviceFollowUps: [serviceClients]string{"ER", "RE"},
		setupReps:        1, flowRoundsPerS: 1, ecoEditsPerS: 2, verifyChecksPerS: 4, servicePlansPerS: 1}
}

func specs(names ...string) []gen.Spec {
	out := make([]gen.Spec, len(names))
	for i, n := range names {
		s, ok := gen.SpecByName(n)
		if !ok {
			panic("bench: unknown circuit " + n)
		}
		out[i] = s
	}
	return out
}

// count sizes a workload: perS operations per second of the run, at
// least one.
func count(seconds int, perS float64) int {
	return max(1, int(float64(seconds)*perS+0.5))
}

// Stream indexes keep the seed's derived streams independent.
const (
	streamStimulus = iota + 1
	streamNames
	streamPlan
)

// subSeed derives the i-th seed of a stream from the run seed.
func subSeed(seed int64, stream, i uint64) int64 {
	return int64(prng.New(uint64(seed)).Stream(stream).Stream(i).Uint64() >> 1)
}

// Verification shape shared by all checks: 48 cycles, lanes as given.
const verifyCycles = 48

// stimulus is the i-th seeded multi-lane stimulus for c's inputs.
func stimulus(c *netlist.Circuit, seed int64, i uint64, lanes int) [][][]bool {
	return sim.LaneStimulus(c, verifyCycles, 0, subSeed(seed, streamStimulus, i), lanes)
}

// ecoScriptSeed fixes the ECO edit script. Edits on the same session
// differ up to a hundredfold in cost (a resize can force period recovery
// or the cold fallback), so a seeded script would move eco-stream's
// medians more than any change under test.
const ecoScriptSeed = 1

// resizeScript draws n single-gate resizes on c: each picks a gate whose
// cell has several drives and moves it to another drive. Drives are
// tracked across the script, so every edit changes the netlist.
func resizeScript(c *netlist.Circuit, lib *celllib.Library, n int) []netlist.Edit {
	rng := prng.New(ecoScriptSeed)
	type cand struct {
		name   string
		drives int
	}
	var cands []cand
	drive := map[string]int{}
	for _, g := range c.Gates() {
		if k := drives(lib, g); k > 1 {
			cands = append(cands, cand{g.Name, k})
			drive[g.Name] = g.Drive
		}
	}
	edits := make([]netlist.Edit, 0, n)
	for len(edits) < n && len(cands) > 0 {
		g := cands[rng.Uint64()%uint64(len(cands))]
		d := int(rng.Uint64() % uint64(g.drives-1))
		if d >= drive[g.name] {
			d++
		}
		drive[g.name] = d
		edits = append(edits, netlist.Edit{Op: netlist.EditResize, Node: g.name, Drive: d})
	}
	return edits
}

// drives is the number of drive options of n's cell.
func drives(lib *celllib.Library, n *netlist.Node) int {
	name := n.Cell
	if name == "" {
		name = n.Kind.String()
	}
	if cell := lib.Cell(name); cell != nil {
		return len(cell.Options)
	}
	return 0
}

// benchText renders c in the .bench dialect the service accepts.
func benchText(c *netlist.Circuit) (string, error) {
	var b bytes.Buffer
	if err := netlist.Write(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}

// renameNets prefixes every net name in a netlist written by
// netlist.Write. A common prefix keeps the names' sort order, so the
// renamed circuit parses to the same node order and costs the optimizer
// exactly the same work while hashing to a different cache key.
func renameNets(text, prefix string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		open := strings.IndexByte(line, '(')
		switch {
		case line == "" || strings.HasPrefix(line, "#") || open < 0:
			b.WriteString(line)
		case strings.HasPrefix(line, "INPUT(") || strings.HasPrefix(line, "OUTPUT("):
			b.WriteString(line[:open+1] + prefix + line[open+1:])
		default: // name = KIND(a, b) [annotations]
			end := strings.IndexByte(line, ')')
			args := strings.Split(line[open+1:end], ", ")
			for i, a := range args {
				if a != "" {
					args[i] = prefix + a
				}
			}
			b.WriteString(prefix + line[:open+1] + strings.Join(args, ", ") + line[end:])
		}
	}
	return b.String()
}

// namePrefix is the seeded net-name prefix of the i-th service
// submission; the index keeps prefixes distinct.
func namePrefix(seed int64, i uint64) string {
	return fmt.Sprintf("j%d_%06x_", i, uint64(subSeed(seed, streamNames, i))&0xffffff)
}
