package gen

// This file implements the deterministic circuit-from-bytes decoder used
// by the differential fuzzing harness (internal/verify). A raw
// byte string — the native Go fuzzing corpus format — is interpreted as a
// small synchronous pipeline plus the simulation knobs that make the case
// replayable. The mapping is total modulo structural caps: every byte
// string either decodes to a structurally valid circuit or returns an
// error (never panics), and equal bytes always decode to equal cases.
//
// Layout (all quantities are consumed from a cursor that yields 0 once
// the input is exhausted, so short inputs decode to small default cases):
//
//	byte 0      number of primary inputs          2 + b%3   (2..4)
//	byte 1      number of pipeline stages         1 + b%2   (1..2)
//	byte 2      flags: 1 fast bypass, 2 feedback loop, 4 extra mid output
//	per stage   width 1 + b%3, depth 2 + b%5
//	per gate    kind byte + one byte per fanin pick
//	tail        cycles, stimulus seed (2 bytes), period fraction, step
//
// The shape mirrors the synthetic benchmark generator (ffBank-delimited
// unbalanced stages, optional racing bypass and register feedback) so a
// large share of random inputs exercises the full VirtualSync pipeline
// instead of being rejected during critical-part extraction.

import (
	"fmt"

	"virtualsync/internal/netlist"
)

// Decoded is one replayable fuzz case: the circuit and the knobs the
// differential checker runs it with.
type Decoded struct {
	Circuit *netlist.Circuit

	// Cycles and Warmup bound the equivalence simulation; StimSeed picks
	// the deterministic random stimulus.
	Cycles   int
	Warmup   int
	StimSeed int64

	// TFrac is the single-period probe target: T = T0*(1-TFrac), where T0
	// is the circuit's guard-banded baseline period.
	TFrac float64
}

// decoder caps, chosen so the full ILP flow on a decoded case runs in
// tens of milliseconds.
const (
	decMaxGates = 64
	decMaxFFs   = 24
)

// byteCursor reads a byte string left to right, yielding 0 forever once
// the data is exhausted.
type byteCursor struct {
	data []byte
	pos  int
}

func (c *byteCursor) next() byte {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

// mod returns next() % n in [0, n).
func (c *byteCursor) mod(n int) int { return int(c.next()) % n }

var decodeKinds = []netlist.Kind{
	netlist.KindBuf, netlist.KindNot, netlist.KindAnd, netlist.KindNand,
	netlist.KindOr, netlist.KindNor, netlist.KindXor, netlist.KindXnor,
}

// DecodeCase deterministically maps a byte string to a fuzz case. The
// second return is non-nil when the bytes encode a structurally invalid
// circuit (the fuzz targets skip such inputs).
func DecodeCase(data []byte) (*Decoded, error) {
	cur := &byteCursor{data: data}
	c := netlist.New("fuzz")

	numInputs := 2 + cur.mod(3)
	numStages := 1 + cur.mod(2)
	flags := cur.next()

	pis := make([]netlist.NodeID, numInputs)
	for i := range pis {
		pis[i] = c.MustAdd(fmt.Sprintf("pi%d", i), netlist.KindInput).ID
	}

	gates := 0
	ffs := 0
	id := 0
	name := func(prefix string) string {
		id++
		return fmt.Sprintf("%s_n%d", prefix, id)
	}
	bank := func(prefix string, ins []netlist.NodeID) []netlist.NodeID {
		out := make([]netlist.NodeID, len(ins))
		for i, in := range ins {
			out[i] = c.MustAdd(name(prefix), netlist.KindDFF, in).ID
			ffs++
		}
		return out
	}
	// layer appends one byte-driven combinational layer over the pool.
	layer := func(prefix string, pool []netlist.NodeID, width int) []netlist.NodeID {
		out := make([]netlist.NodeID, 0, width)
		for i := 0; i < width; i++ {
			kind := decodeKinds[cur.mod(len(decodeKinds))]
			f1 := pool[cur.mod(len(pool))]
			var n *netlist.Node
			if kind.MaxFanins() == 1 {
				n = c.MustAdd(name(prefix), kind, f1)
			} else {
				f2 := pool[cur.mod(len(pool))]
				n = c.MustAdd(name(prefix), kind, f1, f2)
			}
			gates++
			out = append(out, n.ID)
		}
		return out
	}

	prev := bank("ffi", pis)
	// ringMask is a directly input-driven register: ANDing it in front of
	// the feedback register makes every ring flushable by a few cycles of
	// all-zero stimulus, so differential comparison after reset+warmup is
	// well-defined (see sim.ResetStimulus).
	ringMask := prev[0]
	var bypassSrc netlist.NodeID = netlist.InvalidID
	if flags&1 != 0 {
		bypassSrc = prev[0]
	}
	var loopFF netlist.NodeID = netlist.InvalidID
	for s := 0; s < numStages; s++ {
		width := 1 + cur.mod(3)
		depth := 2 + cur.mod(5)
		stageIn := prev
		if s == numStages-1 && flags&2 != 0 {
			// Register feedback ring across the last stage: forces a
			// sequential delay unit when the ring register is removed.
			lf := c.MustAdd(name("ffl"), netlist.KindDFF, stageIn[0]) // rewired below
			ffs++
			loopFF = lf.ID
			entry := c.MustAdd(name("loopentry"), netlist.KindXor, stageIn[0], loopFF)
			gates++
			stageIn = append([]netlist.NodeID{entry.ID}, stageIn[1:]...)
		}
		cursorPool := stageIn
		for d := 0; d < depth && gates < decMaxGates; d++ {
			next := layer(fmt.Sprintf("s%d", s), cursorPool, width)
			// Keep the stage inputs reachable so reconvergent picks exist.
			cursorPool = append(next, stageIn[cur.mod(len(stageIn))])
		}
		stageOut := cursorPool[:min(width, len(cursorPool))]
		if s == numStages-1 {
			if loopFF != netlist.InvalidID {
				mask := c.MustAdd(name("ringmask"), netlist.KindAnd, stageOut[0], ringMask)
				gates++
				c.Node(loopFF).Fanins[0] = mask.ID
			}
			if bypassSrc != netlist.InvalidID {
				join := c.MustAdd(name("byjoin"), netlist.KindAnd, stageOut[len(stageOut)-1], bypassSrc)
				gates++
				stageOut = append(stageOut[:len(stageOut)-1], join.ID)
			}
		}
		if ffs+len(stageOut) > decMaxFFs {
			stageOut = stageOut[:max(1, decMaxFFs-ffs)]
		}
		prev = bank(fmt.Sprintf("ffo%d", s), stageOut)
		if flags&4 != 0 && s == 0 && numStages > 1 {
			c.MustAdd(name("pom"), netlist.KindOutput, prev[0])
		}
	}
	c.MustAdd("po0", netlist.KindOutput, prev[0])
	if len(prev) > 1 {
		c.MustAdd("po1", netlist.KindOutput, prev[len(prev)-1])
	}

	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("gen: decode: %v", err)
	}
	if _, err := c.TopoOrder(); err != nil {
		return nil, fmt.Errorf("gen: decode: %v", err)
	}

	d := &Decoded{
		Circuit:  c,
		Cycles:   24 + 8*cur.mod(3),
		Warmup:   10,
		StimSeed: int64(cur.next())<<8 | int64(cur.next()),
		TFrac:    float64(cur.mod(13)) / 100,
	}
	return d, nil
}
