// Benchmark for the incremental ECO path: one cold period search on
// s5378 (run once per process, wall time recorded), then per-iteration
// single-gate edits served by Session.Reoptimize. The reported
// speedup-x metric is the cold search time over the mean incremental
// re-optimization time — the headline number for the ECO subsystem
// (tracked in BENCH_eco.json via make bench-eco) — and cpus the host's
// CPU count.
package virtualsync_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"virtualsync"
	"virtualsync/internal/netlist"
)

var (
	ecoOnce     sync.Once
	ecoSess     *virtualsync.Session
	ecoErr      error
	ecoColdTime time.Duration
)

func ecoSetup(b *testing.B) *virtualsync.Session {
	b.Helper()
	ecoOnce.Do(func() {
		c := virtualsync.GenerateBenchmark("s5378")
		lib := virtualsync.DefaultLibrary()
		start := time.Now()
		ecoSess, ecoErr = virtualsync.NewSession(context.Background(), c, lib,
			virtualsync.DefaultOptions(), 0.005, nil)
		ecoColdTime = time.Since(start)
	})
	if ecoErr != nil {
		b.Fatal(ecoErr)
	}
	return ecoSess
}

// ecoToggleGate picks the first gate with a faster drive option
// available, giving each benchmark iteration a real one-gate edit
// (alternating between the gate's original and faster drive).
func ecoToggleGate(b *testing.B, sess *virtualsync.Session) (name string, drives [2]int) {
	b.Helper()
	lib := sess.Lib
	for _, n := range sess.Circuit.Gates() {
		if d, _, _, ok := lib.FasterDrive(n); ok {
			return n.Name, [2]int{d, n.Drive}
		}
	}
	b.Fatal("no resizable gate in benchmark circuit")
	return "", drives
}

func BenchmarkECO(b *testing.B) {
	sess := ecoSetup(b)
	gate, drives := ecoToggleGate(b, sess)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit := virtualsync.Edit{Op: netlist.EditResize, Node: gate, Drive: drives[i%2]}
		if _, _, err := sess.Reoptimize(ctx, []virtualsync.Edit{edit}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	inc := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(ecoColdTime.Seconds()*1e3, "cold-ms")
	b.ReportMetric(float64(inc.Milliseconds()), "eco-ms")
	b.ReportMetric(ecoColdTime.Seconds()/inc.Seconds(), "speedup-x")
	reportCPUs(b)
}
