package sim

import (
	"fmt"
	"slices"
	"testing"

	"virtualsync/internal/netlist"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	c := pipeline(t)
	// Lane counts straddling every interesting K: one word (K=1), an
	// exact word boundary, word+1, and K=2/K=4 odd counts.
	for _, lanes := range []int{1, 3, 64, 65, 100, 128, 129, 250} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			cycles := 13 // odd vector count
			scalar, words := packedRandom(t, c, cycles, lanes)
			wantK := (lanes + 63) / 64
			if len(words) > 0 && len(words[0]) != len(c.Inputs())*wantK {
				t.Fatalf("packed row has %d words, want %d inputs x K=%d", len(words[0]), len(c.Inputs()), wantK)
			}
			for l := range scalar {
				got := unpackLane(words, wantK, l)
				for cyc := range got {
					for i := range got[cyc] {
						if got[cyc][i] != scalar[l][cyc][i] {
							t.Fatalf("lane %d cycle %d input %d: round trip lost %v", l, cyc, i, scalar[l][cyc][i])
						}
					}
				}
			}
		})
	}
}

// TestPackLaneZeroIdentity pins the layout contract the verification
// flow depends on: lane 0 of a packed run is the historical seed
// vector, bit for bit, at every K.
func TestPackLaneZeroIdentity(t *testing.T) {
	c := pipeline(t)
	for _, lanes := range []int{1, 64, 128, 200} {
		scalar, words := packedRandom(t, c, 9, lanes)
		k := (lanes + 63) / 64
		got := unpackLane(words, k, 0)
		for cyc := range got {
			for i, v := range got[cyc] {
				if v != scalar[0][cyc][i] {
					t.Fatalf("lanes=%d: lane 0 not identical to its scalar stimulus at cycle %d input %d", lanes, cyc, i)
				}
				if words[cyc][i*k]&1 == 1 != v {
					t.Fatalf("lanes=%d: lane 0 is not bit 0 of word 0 at cycle %d input %d", lanes, cyc, i)
				}
			}
		}
	}
}

func TestPackStimulusRejects(t *testing.T) {
	if _, err := PackStimulus(nil); err == nil {
		t.Fatal("packing 0 lanes should fail")
	}
	if _, err := PackStimulus(make([][][]bool, MaxLanes+1)); err == nil {
		t.Fatalf("packing %d lanes should fail", MaxLanes+1)
	}
	ragged := [][][]bool{{{true}}, {{true}, {false}}}
	if _, err := PackStimulus(ragged); err == nil {
		t.Fatal("packing ragged lanes should fail")
	}
	raggedWidth := [][][]bool{{{true, false}}, {{true}}}
	if _, err := PackStimulus(raggedWidth); err == nil {
		t.Fatal("packing ragged input widths should fail")
	}
}

// packStimulusRef is the lane-major packing loop PackStimulus used to
// run (lane, then cycle, then input, setting one bit per step), kept as
// its differential oracle: the same words and the same first error.
func packStimulusRef(lanes [][][]bool) ([][]uint64, error) {
	if len(lanes) == 0 || len(lanes) > MaxLanes {
		return nil, fmt.Errorf("sim: pack needs 1..%d lanes, got %d", MaxLanes, len(lanes))
	}
	k := laneWords(len(lanes))
	cycles := len(lanes[0])
	var width int
	if cycles > 0 {
		width = len(lanes[0][0])
	}
	words := make([][]uint64, cycles)
	for cyc := range words {
		words[cyc] = make([]uint64, width*k)
	}
	for l, stim := range lanes {
		if len(stim) != cycles {
			return nil, fmt.Errorf("sim: lane %d has %d cycles, want %d", l, len(stim), cycles)
		}
		word, bit := l/64, uint64(1)<<(uint(l)%64)
		for cyc, vec := range stim {
			if len(vec) != width {
				return nil, fmt.Errorf("sim: lane %d cycle %d has %d inputs, want %d", l, cyc, len(vec), width)
			}
			for i, v := range vec {
				if v {
					words[cyc][i*k+word] |= bit
				}
			}
		}
	}
	return words, nil
}

// TestPackStimulusMatchesReference holds PackStimulus to the lane-major
// oracle at lane counts around every word boundary and at verify-wide's
// 1024, and on every shape error: the same words, or the same message.
func TestPackStimulusMatchesReference(t *testing.T) {
	c := pipeline(t)
	same := func(t *testing.T, lanes [][][]bool) {
		t.Helper()
		got, gotErr := PackStimulus(lanes)
		want, wantErr := packStimulusRef(lanes)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, want %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d cycles, want %d", len(got), len(want))
		}
		for cyc := range want {
			if !slices.Equal(got[cyc], want[cyc]) {
				t.Fatalf("cycle %d: words %x, want %x", cyc, got[cyc], want[cyc])
			}
		}
	}
	for _, n := range []int{1, 63, 64, 65, 200, 1024} {
		t.Run(fmt.Sprintf("lanes=%d", n), func(t *testing.T) {
			lanes := LaneStimulus(c, 11, 2, int64(n), n)
			same(t, lanes)
			// Ragged shapes: a short lane, a narrow cycle, both in one
			// set (the first in lane order wins), and zero cycles.
			last := n - 1
			short := append([][][]bool(nil), lanes...)
			short[last] = short[last][:10]
			same(t, short)
			narrow := append([][][]bool(nil), lanes...)
			narrow[last] = append([][]bool(nil), narrow[last]...)
			narrow[last][4] = narrow[last][4][:1]
			same(t, narrow)
			if n > 1 {
				both := append([][][]bool(nil), narrow...)
				both[last/2] = both[last/2][:3]
				same(t, both)
			}
			same(t, make([][][]bool, n))
		})
	}
	same(t, nil)
	same(t, make([][][]bool, MaxLanes+1))
}

// BenchmarkPackStimulus packs verify-wide's shape, 1024 lanes by 48
// cycles of random stimulus for 35 inputs (s5378's count), with
// PackStimulus and with the lane-major reference loop.
func BenchmarkPackStimulus(b *testing.B) {
	c := netlist.New("wide")
	for i := 0; i < 35; i++ {
		c.MustAdd(fmt.Sprintf("in%d", i), netlist.KindInput)
	}
	lanes := LaneStimulus(c, 48, 0, 1, 1024)
	for name, pack := range map[string]func([][][]bool) ([][]uint64, error){"pack": PackStimulus, "reference": packStimulusRef} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pack(lanes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestBitTraceLaneBounds(t *testing.T) {
	bt := &BitTrace{Lanes: 8, K: 1, Words: map[string][]uint64{"x": {0xff}}}
	if _, err := bt.Lane(8); err == nil {
		t.Fatal("lane 8 of 8-lane trace should be out of range")
	}
	if _, err := bt.Lane(-1); err == nil {
		t.Fatal("negative lane should be out of range")
	}
	tr, err := bt.Lane(7)
	if err != nil {
		t.Fatal(err)
	}
	if !tr["x"][0] {
		t.Fatal("lane 7 bit lost")
	}
	// Multi-word: lane 64 is bit 0 of the second word of each sample.
	wide := &BitTrace{Lanes: 65, K: 2, Words: map[string][]uint64{"y": {0, 1, 0, 0}}}
	tr, err = wide.Lane(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr["y"]; len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("lane 64 of K=2 trace = %v, want [true false]", got)
	}
}

func TestCompareBitTracesMask(t *testing.T) {
	a := &BitTrace{Lanes: 4, K: 1, Words: map[string][]uint64{"s": {0b0101, 0b0011}}}
	b := &BitTrace{Lanes: 4, K: 1, Words: map[string][]uint64{"s": {0b0101, 0b1010}, "extra": {1, 1}}}
	if got := CompareBitTraces(a, b, 0); len(got) != 1 || got[0] != 0b1001 {
		t.Fatalf("mismatch mask = %v, want [1001]", got)
	}
	if got := CompareBitTraces(a, b, 2); MaskLanes(got) != 0 {
		t.Fatalf("warmup past divergence should clear mask, got %v", got)
	}
	// Lanes beyond the smaller trace's count are ignored.
	b.Lanes = 2
	if got := CompareBitTraces(a, b, 0); len(got) != 1 || got[0] != 0b01 {
		t.Fatalf("clamped mask = %v, want [01]", got)
	}
}

// TestCompareBitTracesWordBoundary checks mismatch localization when
// the disagreeing lanes live in different words of a multi-word sample.
func TestCompareBitTracesWordBoundary(t *testing.T) {
	const lanes, k, cycles = 130, 3, 2
	row := func() []uint64 { return make([]uint64, cycles*k) }
	a := &BitTrace{Lanes: lanes, K: k, Words: map[string][]uint64{"s": row()}}
	b := &BitTrace{Lanes: lanes, K: k, Words: map[string][]uint64{"s": row()}}
	// Flip lane 63 (word 0) in cycle 0 and lanes 64 and 129 (words 1
	// and 2) in cycle 1 on one side only.
	b.Words["s"][0] = 1 << 63
	b.Words["s"][k+1] = 1
	b.Words["s"][k+2] = 1 << 1
	mask := CompareBitTraces(a, b, 0)
	if len(mask) != k {
		t.Fatalf("mask has %d words, want %d", len(mask), k)
	}
	for _, want := range []int{63, 64, 129} {
		if !MaskHasLane(mask, want) {
			t.Fatalf("mask %v misses lane %d", mask, want)
		}
	}
	if n := MaskLanes(mask); n != 3 {
		t.Fatalf("mask credits %d lanes, want 3", n)
	}
	// Warmup past cycle 0 drops the word-0 mismatch but keeps the rest.
	mask = CompareBitTraces(a, b, 1)
	if MaskHasLane(mask, 63) || !MaskHasLane(mask, 64) || !MaskHasLane(mask, 129) {
		t.Fatalf("warmup=1 mask %v, want lanes {64,129} only", mask)
	}
	// Lanes at or above the count never flag, even if stray high bits
	// disagree inside the top word.
	b.Words["s"][2] |= 1 << 40 // lane 168 > 129
	mask = CompareBitTraces(a, b, 0)
	if MaskHasLane(mask, 168) || MaskLanes(mask) != 3 {
		t.Fatalf("out-of-range lane leaked into mask %v", mask)
	}
}

// TestBitSimMultiWordLanes runs the zero-delay engine at K=2 and K=4
// and checks every lane against the event engine — the multi-word
// plumbing through words, scratch and trace must stay lanewise.
func TestBitSimMultiWordLanes(t *testing.T) {
	c := pipeline(t)
	for _, lanes := range []int{96, 200} {
		const cycles = 12
		scalar, words := packedRandom(t, c, cycles, lanes)
		bs, err := NewBit(c, BitOptions{Cycles: cycles, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		bt, err := bs.Run(words)
		if err != nil {
			t.Fatal(err)
		}
		compareAllLanes(t, c, 10, cycles, 0, scalar, bt)
	}
}

// unpackLane extracts one lane's scalar stimulus from words packed with
// stride k — the inverse of PackStimulus for that lane.
func unpackLane(words [][]uint64, k, lane int) [][]bool {
	word, bit := lane/64, uint(lane)%64
	out := make([][]bool, len(words))
	for cyc, vec := range words {
		row := make([]bool, len(vec)/k)
		for i := range row {
			row[i] = vec[i*k+word]>>bit&1 == 1
		}
		out[cyc] = row
	}
	return out
}
