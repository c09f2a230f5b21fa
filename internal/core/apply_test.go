package core

import (
	"context"

	"strings"
	"testing"

	"virtualsync/internal/netlist"
)

func realizedPlan(t *testing.T) *Plan {
	t.Helper()
	c := wavePipe(t)
	lib := paperLib(t)
	r, err := Extract(c, lib, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizeRegion(context.Background(), r, 10, DefaultOptions(), nil)
	if err != nil || p == nil {
		t.Fatalf("optimizeRegion: %v %v", p, err)
	}
	if err := p.realize(context.Background()); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApplyRemovesSelectedFFs(t *testing.T) {
	p := realizedPlan(t)
	out, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range p.R.Removed {
		name := p.R.Work.Node(id).Name
		if out.ByName(name) != nil {
			t.Errorf("removed flip-flop %q still present", name)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyInsertsPlannedHardware(t *testing.T) {
	p := realizedPlan(t)
	out, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	bufs, ffs, latches := 0, 0, 0
	out.Live(func(n *netlist.Node) {
		if !strings.HasPrefix(n.Name, "vs_") {
			return
		}
		switch n.Kind {
		case netlist.KindBuf:
			bufs++
		case netlist.KindDFF:
			ffs++
		case netlist.KindLatch:
			latches++
		}
	})
	wantFF, wantLatch := p.NumUnits()
	if bufs != p.NumBuffers() || ffs != wantFF || latches != wantLatch {
		t.Fatalf("inserted %d/%d/%d (buf/ff/latch), plan says %d/%d/%d",
			bufs, ffs, latches, p.NumBuffers(), wantFF, wantLatch)
	}
}

func TestApplyPreservesGateDrives(t *testing.T) {
	p := realizedPlan(t)
	out, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	for gi, gid := range p.R.Gates {
		name := p.R.Work.Node(gid).Name
		n := out.ByName(name)
		if n == nil {
			t.Fatalf("region gate %q missing from optimized circuit", name)
		}
		if n.Drive != p.GateDrive[gi] {
			t.Errorf("gate %q drive = %d, plan says %d", name, n.Drive, p.GateDrive[gi])
		}
	}
}

func TestApplyIsRepeatable(t *testing.T) {
	p := realizedPlan(t)
	a, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Apply is not deterministic")
	}
	// The working circuit must be untouched by Apply.
	for _, id := range p.R.Removed {
		if p.R.Work.Node(id) == nil {
			t.Fatal("Apply mutated the region's working circuit")
		}
	}
}
