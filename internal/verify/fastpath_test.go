package verify

import (
	"math/rand"
	"testing"

	"virtualsync/internal/gen"
)

// TestFastPathEngagesAndAgrees streams random generated cases through
// the checker twice — once with the bit-parallel fast path, once with
// a one-lane checker, which runs the event-engine oracle alone — and
// demands identical verdicts. It
// also demands the fast path actually engages on a healthy fraction of
// passing cases: the gate conditions (exact original, supported
// optimized circuit, clean calibration) must not silently rot into
// "always fall back".
func TestFastPathEngagesAndAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("case stream is not -short")
	}
	fast := NewChecker()
	slow := NewChecker()
	slow.Lanes = 1
	rng := rand.New(rand.NewSource(77))
	cases, passes, engaged, full := 0, 0, 0, 0
	for i := 0; i < 40; i++ {
		data := make([]byte, 12+rng.Intn(100))
		rng.Read(data)
		d, err := gen.DecodeCase(data)
		if err != nil {
			continue
		}
		cases++
		rf := fast.Check(d)
		rs := slow.Check(d)
		if rf.Outcome != rs.Outcome {
			t.Fatalf("case %d: fast path verdict %v, event oracle %v", i, rf, rs)
		}
		if rs.FastPath {
			t.Fatalf("case %d: one-lane checker claims fast path", i)
		}
		if rf.Outcome == Pass && rf.Stage == "" {
			passes++
			if rf.FastPath {
				engaged++
				// Lanes is 64 when every lane agreed outright, and
				// smaller when some lanes were BitSim artifacts that
				// needed (and survived) event-engine confirmation.
				if rf.Lanes < 1 || rf.Lanes > 64 {
					t.Fatalf("case %d: fast-path pass credited %d lanes", i, rf.Lanes)
				}
				if rf.Lanes == 64 {
					full++
				}
			}
			if rs.Lanes != 1 {
				t.Fatalf("case %d: event oracle credited %d lanes, want 1", i, rs.Lanes)
			}
		}
	}
	if cases == 0 || passes == 0 {
		t.Fatalf("case stream produced no verified passes (%d cases)", cases)
	}
	if engaged*2 < passes {
		t.Fatalf("fast path engaged on only %d of %d passing cases", engaged, passes)
	}
	if full == 0 {
		t.Fatalf("no fast-path pass ever cleared all 64 lanes (%d engaged)", engaged)
	}
	t.Logf("%d cases, %d passes, fast path on %d (%d full-width)", cases, passes, engaged, full)
}
