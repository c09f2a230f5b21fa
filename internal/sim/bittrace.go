package sim

import "fmt"

// MaxLanes bounds the stimulus lanes of one bit-parallel run: up to 64
// machine words per value, 64 lanes per word.
const MaxLanes = 64 * 64

// laneWords returns the number of uint64 words needed to carry n lanes
// — the K of the [K]uint64 value representation, selected at pack time.
func laneWords(n int) int { return (n + 63) / 64 }

// BitTrace is the bit-parallel counterpart of Trace: each sampled value
// is K consecutive uint64 words packing one bit per lane, and
// Words[name] concatenates the per-cycle samples, so Words[name][c*K+w]
// is word w of the cycle-c sample. Lane l of every sample (bit l%64 of
// word l/64) corresponds to one complete scalar simulation, so a
// BitTrace converts losslessly to Lanes independent Traces.
type BitTrace struct {
	Lanes int
	K     int // words per sample, laneWords(Lanes)
	Words map[string][]uint64
}

// laneMask returns a word with the low n lane bits set.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// maskWords returns the per-word lane masks covering the low n lanes of
// a k-word sample.
func maskWords(n, k int) []uint64 {
	out := make([]uint64, k)
	for w := range out {
		rem := n - 64*w
		if rem < 0 {
			rem = 0
		}
		out[w] = laneMask(rem)
	}
	return out
}

// MaskLanes counts the set bits of a CompareBitTraces mask — the number
// of disagreeing lanes.
func MaskLanes(mask []uint64) int {
	n := 0
	for _, w := range mask {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// MaskHasLane reports whether lane l is set in a CompareBitTraces mask.
func MaskHasLane(mask []uint64, l int) bool {
	w := l / 64
	return w < len(mask) && mask[w]>>(uint(l)%64)&1 == 1
}

// Lane extracts one lane as a scalar Trace. The result is freshly
// allocated and stays valid after the next Run.
func (t *BitTrace) Lane(l int) (Trace, error) {
	if l < 0 || l >= t.Lanes {
		return nil, fmt.Errorf("sim: lane %d outside 0..%d", l, t.Lanes-1)
	}
	k := t.K
	word, bit := l/64, uint(l)%64
	out := make(Trace, len(t.Words))
	for name, row := range t.Words {
		tr := make([]bool, len(row)/k)
		for cyc := range tr {
			tr[cyc] = row[cyc*k+word]>>bit&1 == 1
		}
		out[name] = tr
	}
	return out, nil
}

// CompareBitTraces compares every signal present in both traces from
// cycle warmup onward and returns a mask with bit l (bit l%64 of word
// l/64) set when lane l disagrees anywhere. Lanes beyond the smaller of
// the two traces' lane counts are ignored. An all-zero result means all
// common lanes agree.
func CompareBitTraces(a, b *BitTrace, warmup int) []uint64 {
	lanes := a.Lanes
	if b.Lanes < lanes {
		lanes = b.Lanes
	}
	ka, kb := a.K, b.K
	k := laneWords(lanes)
	diff := make([]uint64, k)
	for name, ra := range a.Words {
		rb, ok := b.Words[name]
		if !ok {
			continue
		}
		n := len(ra) / ka
		if nb := len(rb) / kb; nb < n {
			n = nb
		}
		for cyc := warmup; cyc < n; cyc++ {
			for w := 0; w < k; w++ {
				diff[w] |= ra[cyc*ka+w] ^ rb[cyc*kb+w]
			}
		}
	}
	for w, m := range maskWords(lanes, k) {
		diff[w] &= m
	}
	return diff
}

// PackStimulus packs up to MaxLanes scalar stimulus sets into lane
// words, selecting the word count K = ceil(lanes/64) of the value
// representation: lanes[l][cycle][input] becomes bit l%64 of
// words[cycle][input*K + l/64]. All lane sets must have identical cycle
// count and input width; unused high lanes are left zero. For up to 64
// lanes K is 1 and the layout coincides with the historical
// one-word-per-input form.
//
// The shapes are checked lane by lane first, so the first ragged lane
// is the one reported. Then each cycle is filled one output word at a
// time from the (up to) 64 lanes it packs.
func PackStimulus(lanes [][][]bool) ([][]uint64, error) {
	if len(lanes) == 0 || len(lanes) > MaxLanes {
		return nil, fmt.Errorf("sim: pack needs 1..%d lanes, got %d", MaxLanes, len(lanes))
	}
	k := laneWords(len(lanes))
	cycles := len(lanes[0])
	var width int
	if cycles > 0 {
		width = len(lanes[0][0])
	}
	for l, stim := range lanes {
		if len(stim) != cycles {
			return nil, fmt.Errorf("sim: lane %d has %d cycles, want %d", l, len(stim), cycles)
		}
		for cyc, vec := range stim {
			if len(vec) != width {
				return nil, fmt.Errorf("sim: lane %d cycle %d has %d inputs, want %d", l, cyc, len(vec), width)
			}
		}
	}
	words := make([][]uint64, cycles)
	backing := make([]uint64, cycles*width*k)
	acc := make([]uint64, width) // one word per input for the 64 lanes being packed
	for cyc := range words {
		out := backing[cyc*width*k : (cyc+1)*width*k : (cyc+1)*width*k]
		words[cyc] = out
		for word := 0; word < k; word++ {
			clear(acc)
			for b, stim := range lanes[word*64 : min(word*64+64, len(lanes))] {
				orBits(acc, stim[cyc], uint(b))
			}
			for i, x := range acc {
				out[i*k+word] = x
			}
		}
	}
	return words, nil
}

// orBits sets bit b of acc[i] where vec[i] is true, without a branch
// per input (random stimulus defeats the predictor).
func orBits(acc []uint64, vec []bool, b uint) {
	acc = acc[:len(vec)]
	for i, v := range vec {
		var u uint64
		if v {
			u = 1
		}
		acc[i] |= u << b
	}
}
