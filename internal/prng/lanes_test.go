package prng

import "testing"

func TestLaneSeeds(t *testing.T) {
	seeds := LaneSeeds(12345, 64)
	if len(seeds) != 64 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	if seeds[0] != 12345 {
		t.Fatalf("lane 0 seed = %d, must be the base seed", seeds[0])
	}
	seen := map[int64]int{}
	for l, s := range seeds {
		if prev, dup := seen[s]; dup {
			t.Fatalf("lanes %d and %d share seed %d", prev, l, s)
		}
		seen[s] = l
	}
	again := LaneSeeds(12345, 64)
	for l := range seeds {
		if seeds[l] != again[l] {
			t.Fatalf("lane %d seed not deterministic", l)
		}
	}
	other := LaneSeeds(12346, 64)
	same := 0
	for l := 1; l < 64; l++ {
		if other[l] == seeds[l] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d derived seeds collide across bases", same)
	}
	if got := LaneSeeds(7, 0); len(got) != 0 {
		t.Fatalf("zero lanes should yield empty slice, got %v", got)
	}
}
