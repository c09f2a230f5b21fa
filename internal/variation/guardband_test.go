package variation

import (
	"context"
	"testing"

	"virtualsync/internal/core"
)

func TestSweepAndTuneGuardBands(t *testing.T) {
	c := wavePipe(t)
	lib := testLib(t)
	opts := core.DefaultOptions()
	cfg := Config{Samples: 80, Seed: 21, Model: DefaultModel()}
	margins := []float64{0.02, 0.1, 0.2}

	points, err := sweepGuardBands(context.Background(), c, lib, opts, 0.02, margins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(margins) {
		t.Fatalf("got %d points for %d margins", len(points), len(margins))
	}
	feasible := 0
	for i, p := range points {
		if i > 0 && p.Margin <= points[i-1].Margin {
			t.Fatal("margins not ascending")
		}
		if p.Res != nil {
			feasible++
			if p.Yield < 0 || p.Yield > 1 {
				t.Fatalf("yield %g out of range at margin %g", p.Yield, p.Margin)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no margin produced a feasible optimization")
	}

	// A very generous margin must widen the achieved period relative to
	// an aggressive one (when both are feasible).
	if points[0].Res != nil && points[len(points)-1].Res != nil {
		if points[0].Res.Period > points[len(points)-1].Res.Period+1e-9 {
			t.Fatalf("smaller margin gave the larger period: %g@%g vs %g@%g",
				points[0].Res.Period, points[0].Margin,
				points[len(points)-1].Res.Period, points[len(points)-1].Margin)
		}
	}

	best, all, err := TuneGuardBands(context.Background(), c, lib, opts, 0.02, margins, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(margins) || best.Res == nil || best.Yield < 0.5 {
		t.Fatalf("tune returned margin %g yield %g", best.Margin, best.Yield)
	}

	// An unreachable target must fail cleanly.
	if _, _, err := TuneGuardBands(context.Background(), c, lib, opts, 0.02, margins, 1.01, cfg); err == nil {
		t.Fatal("impossible yield target accepted")
	}
}

func TestSweepGuardBandsValidation(t *testing.T) {
	c := wavePipe(t)
	lib := testLib(t)
	opts := core.DefaultOptions()
	cfg := Config{Samples: 8, Seed: 1}
	if _, err := sweepGuardBands(context.Background(), c, lib, opts, 0.02, nil, cfg); err == nil {
		t.Fatal("empty margin list accepted")
	}
	if _, err := sweepGuardBands(context.Background(), c, lib, opts, 0.02, []float64{-0.1}, cfg); err == nil {
		t.Fatal("negative margin accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sweepGuardBands(ctx, c, lib, opts, 0.02, []float64{0.1}, cfg); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}
