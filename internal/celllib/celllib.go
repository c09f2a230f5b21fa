// Package celllib models a standard-cell library for timing optimization:
// combinational cells with discrete drive-strength options (each a
// delay/area point), and sequential cells (flip-flop, latch) with
// clock-to-q / data-to-q delays, setup and hold times.
//
// The library plays the role of the 45 nm library used in the VirtualSync
// paper. Delays are load-independent pin-to-pin delays in picoseconds,
// areas in normalized units; the paper's example style ("delays of logic
// gates are shown on the gates") uses the same abstraction.
package celllib

import (
	"fmt"
	"sort"

	"virtualsync/internal/netlist"
)

// Option is one drive-strength variant of a cell: a (delay, area) point.
// Options are ordered by drive index: index 0 is the weakest drive
// (largest delay, smallest area).
type Option struct {
	Delay float64
	Area  float64
}

// Cell is a combinational cell with one or more drive options.
type Cell struct {
	Name    string
	Kind    netlist.Kind
	Options []Option

	// Sigma is the relative standard deviation of the cell's delay under
	// process variation (0 = no characterized variation), shared by all
	// drive options. Used by internal/variation's Monte Carlo models.
	Sigma float64
}

// MinDelay returns the smallest (fastest) delay among the options.
func (c *Cell) MinDelay() float64 { return c.Options[len(c.Options)-1].Delay }

// MaxDelay returns the largest (slowest) delay among the options.
func (c *Cell) MaxDelay() float64 { return c.Options[0].Delay }

// SeqTiming holds the timing parameters of a sequential cell.
type SeqTiming struct {
	Tcq  float64 // clock-to-q (FF) — for latches this is the q delay from the opening clock edge
	Tdq  float64 // data-to-q (latch transparent phase); unused for FFs
	Tsu  float64 // setup time
	Th   float64 // hold time
	Area float64

	// Sigma is the relative standard deviation of the cell's delays
	// (tcq/tdq/tsu/th scale together) under process variation.
	Sigma float64
}

// Scaled returns the timing with every delay-like parameter multiplied
// by f (areas and sigma unchanged). Used by variation sampling.
func (t SeqTiming) Scaled(f float64) SeqTiming {
	t.Tcq *= f
	t.Tdq *= f
	t.Tsu *= f
	t.Th *= f
	return t
}

// Library is a set of cells plus sequential-cell timing.
type Library struct {
	Name  string
	cells map[string]*Cell
	FF    SeqTiming
	Latch SeqTiming
}

// NewLibrary returns an empty library.
func NewLibrary(name string) *Library {
	return &Library{Name: name, cells: make(map[string]*Cell)}
}

// AddCell registers a cell. Options must be non-empty with strictly
// decreasing delay and non-decreasing area.
func (l *Library) AddCell(name string, kind netlist.Kind, opts []Option) (*Cell, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("celllib: cell %q has no options", name)
	}
	if _, ok := l.cells[name]; ok {
		return nil, fmt.Errorf("celllib: duplicate cell %q", name)
	}
	for i := 1; i < len(opts); i++ {
		if opts[i].Delay >= opts[i-1].Delay {
			return nil, fmt.Errorf("celllib: cell %q delays not strictly decreasing", name)
		}
		if opts[i].Area < opts[i-1].Area {
			return nil, fmt.Errorf("celllib: cell %q areas decreasing with drive", name)
		}
	}
	for _, o := range opts {
		if o.Delay <= 0 || o.Area <= 0 {
			return nil, fmt.Errorf("celllib: cell %q has non-positive delay or area", name)
		}
	}
	c := &Cell{Name: name, Kind: kind, Options: append([]Option(nil), opts...)}
	l.cells[name] = c
	return c, nil
}

// Cell returns the named cell, or nil.
func (l *Library) Cell(name string) *Cell { return l.cells[name] }

// CellNames returns all cell names in sorted order.
func (l *Library) CellNames() []string {
	names := make([]string, 0, len(l.cells))
	for n := range l.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cellFor resolves the cell implementing a node: an explicit binding via
// node.Cell, otherwise the cell named after the node's kind.
func (l *Library) cellFor(n *netlist.Node) (*Cell, error) {
	name := n.Cell
	if name == "" {
		name = n.Kind.String()
	}
	c := l.cells[name]
	if c == nil {
		return nil, fmt.Errorf("celllib: no cell %q for node %q (%v)", name, n.Name, n.Kind)
	}
	return c, nil
}

// Delay returns the pin-to-pin delay of a combinational node under its
// current cell/drive binding. Sequential nodes and ports have zero
// combinational delay here; their timing comes from FF/Latch.
func (l *Library) Delay(n *netlist.Node) (float64, error) {
	if !n.Kind.IsCombinational() {
		return 0, nil
	}
	c, err := l.cellFor(n)
	if err != nil {
		return 0, err
	}
	if n.Drive < 0 || n.Drive >= len(c.Options) {
		return 0, fmt.Errorf("celllib: node %q drive %d out of range for cell %q",
			n.Name, n.Drive, c.Name)
	}
	return c.Options[n.Drive].Delay, nil
}

// Area returns the area of a node under its binding. Ports and constants
// have zero area.
func (l *Library) Area(n *netlist.Node) (float64, error) {
	switch {
	case n.Kind == netlist.KindDFF:
		return l.FF.Area, nil
	case n.Kind == netlist.KindLatch:
		return l.Latch.Area, nil
	case !n.Kind.IsCombinational():
		return 0, nil
	}
	c, err := l.cellFor(n)
	if err != nil {
		return 0, err
	}
	if n.Drive < 0 || n.Drive >= len(c.Options) {
		return 0, fmt.Errorf("celllib: node %q drive %d out of range", n.Name, n.Drive)
	}
	return c.Options[n.Drive].Area, nil
}

// CircuitArea sums the area of all live nodes.
func (l *Library) CircuitArea(c *netlist.Circuit) (float64, error) {
	total := 0.0
	var err error
	c.Live(func(n *netlist.Node) {
		if err != nil {
			return
		}
		var a float64
		a, err = l.Area(n)
		total += a
	})
	return total, err
}

// DelayRange returns the (fastest, slowest) delay achievable for the cell
// implementing node n by changing only its drive.
func (l *Library) DelayRange(n *netlist.Node) (min, max float64, err error) {
	if !n.Kind.IsCombinational() {
		return 0, 0, nil
	}
	c, err := l.cellFor(n)
	if err != nil {
		return 0, 0, err
	}
	return c.MinDelay(), c.MaxDelay(), nil
}

// SlowestAtMost returns the drive index of the slowest (smallest-area)
// option of the node's cell whose delay does not exceed d. If every
// option is slower than d, it returns the fastest option and ok=false.
func (l *Library) SlowestAtMost(n *netlist.Node, d float64) (drive int, delay float64, ok bool) {
	c, err := l.cellFor(n)
	if err != nil {
		return 0, 0, false
	}
	for i, o := range c.Options {
		if o.Delay <= d+1e-9 {
			return i, o.Delay, true
		}
	}
	last := len(c.Options) - 1
	return last, c.Options[last].Delay, false
}

// FasterDrive returns the next stronger drive for the node, or ok=false if
// the node is already at maximum drive.
func (l *Library) FasterDrive(n *netlist.Node) (drive int, delay, areaDelta float64, ok bool) {
	c, err := l.cellFor(n)
	if err != nil || n.Drive+1 >= len(c.Options) {
		return 0, 0, 0, false
	}
	cur, next := c.Options[n.Drive], c.Options[n.Drive+1]
	return n.Drive + 1, next.Delay, next.Area - cur.Area, true
}

// SlowerDrive returns the next weaker drive for the node, or ok=false if
// the node is already at minimum drive.
func (l *Library) SlowerDrive(n *netlist.Node) (drive int, delay, areaDelta float64, ok bool) {
	c, err := l.cellFor(n)
	if err != nil || n.Drive == 0 {
		return 0, 0, 0, false
	}
	cur, prev := c.Options[n.Drive], c.Options[n.Drive-1]
	return n.Drive - 1, prev.Delay, prev.Area - cur.Area, true
}

// BufferDelay returns the delay of one inserted delay buffer at weakest
// (largest-delay) drive, the natural unit for delay padding.
func (l *Library) BufferDelay() float64 {
	c := l.cells[netlist.KindBuf.String()]
	if c == nil {
		return 0
	}
	return c.MaxDelay()
}

// BufferArea returns the area of one weakest-drive buffer.
func (l *Library) BufferArea() float64 {
	c := l.cells[netlist.KindBuf.String()]
	if c == nil {
		return 0
	}
	return c.Options[0].Area
}

// Validate checks library consistency: a cell exists for every basic
// combinational kind and sequential timing is positive.
func (l *Library) Validate() error {
	kinds := []netlist.Kind{
		netlist.KindBuf, netlist.KindNot, netlist.KindAnd, netlist.KindNand,
		netlist.KindOr, netlist.KindNor, netlist.KindXor, netlist.KindXnor,
	}
	for _, k := range kinds {
		if l.cells[k.String()] == nil {
			return fmt.Errorf("celllib: library %q missing default cell for %v", l.Name, k)
		}
	}
	if l.FF.Tcq <= 0 || l.FF.Tsu <= 0 || l.FF.Th < 0 {
		return fmt.Errorf("celllib: library %q has invalid FF timing %+v", l.Name, l.FF)
	}
	if l.Latch.Tcq <= 0 || l.Latch.Tdq <= 0 || l.Latch.Tsu <= 0 || l.Latch.Th < 0 {
		return fmt.Errorf("celllib: library %q has invalid latch timing %+v", l.Name, l.Latch)
	}
	return nil
}

// Default returns the built-in "vs45" library used throughout the
// reproduction: 3 drive options per combinational cell with a monotone
// delay/area trade-off, and FF/latch overheads whose ratio to typical
// optimized clock periods (a few hundred ps) matches a 45 nm flow, so the
// clock-to-q + setup overhead VirtualSync removes is a realistic 15-25 %
// of the stage delay.
func Default() *Library {
	l := NewLibrary("vs45")
	mustAdd := func(kind netlist.Kind, opts ...Option) {
		if _, err := l.AddCell(kind.String(), kind, opts); err != nil {
			panic(err)
		}
	}
	// The buffer doubles as the delay-padding cell, so it carries a finer
	// drive ladder than the logic cells, down to small trim delays (real
	// libraries provide dedicated DEL cells in this range).
	mustAdd(netlist.KindBuf, Option{20, 1.0}, Option{14, 1.4}, Option{10, 2.0},
		Option{7, 2.7}, Option{5, 3.5}, Option{3, 4.6}, Option{2, 5.8})
	mustAdd(netlist.KindNot, Option{16, 0.7}, Option{11, 1.0}, Option{8, 1.5})
	mustAdd(netlist.KindAnd, Option{28, 1.5}, Option{20, 2.1}, Option{14, 3.0})
	mustAdd(netlist.KindNand, Option{24, 1.2}, Option{17, 1.7}, Option{12, 2.5})
	mustAdd(netlist.KindOr, Option{28, 1.5}, Option{20, 2.1}, Option{14, 3.0})
	mustAdd(netlist.KindNor, Option{24, 1.2}, Option{17, 1.7}, Option{12, 2.5})
	mustAdd(netlist.KindXor, Option{36, 2.2}, Option{26, 3.0}, Option{18, 4.2})
	mustAdd(netlist.KindXnor, Option{36, 2.2}, Option{26, 3.0}, Option{18, 4.2})
	// Fixed-drive variants ("<KIND>F"): a single option at the middle
	// drive point. They model logic that cannot be resized (hard macros,
	// wire-dominated paths) — the structures that cap optimization gains
	// in real designs.
	for _, kind := range []netlist.Kind{
		netlist.KindBuf, netlist.KindNot, netlist.KindAnd, netlist.KindNand,
		netlist.KindOr, netlist.KindNor, netlist.KindXor, netlist.KindXnor,
	} {
		c := l.cells[kind.String()]
		mid := c.Options[len(c.Options)/2]
		if _, err := l.AddCell(kind.String()+"F", kind, []Option{mid}); err != nil {
			panic(err)
		}
	}
	// Per-cell variation sigmas (relative): logic cells at 4 %, the padding
	// buffer slightly wider (long chains average it out), sequential cells
	// tighter — in line with the paper's +-10 % guard band covering roughly
	// +-2.5 sigma of local variation.
	for _, name := range l.CellNames() {
		l.cells[name].Sigma = 0.04
	}
	l.cells[netlist.KindBuf.String()].Sigma = 0.05
	l.FF = SeqTiming{Tcq: 30, Tsu: 12, Th: 4, Area: 6.0, Sigma: 0.03}
	l.Latch = SeqTiming{Tcq: 16, Tdq: 14, Tsu: 10, Th: 4, Area: 4.5, Sigma: 0.03}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return l
}

// Uniform returns a library where every combinational cell has a single
// option with the given delay and unit area; useful for textbook examples
// such as the paper's Fig. 1 where delays are given per gate.
func Uniform(delay float64, ff, latch SeqTiming) *Library {
	l := NewLibrary("uniform")
	kinds := []netlist.Kind{
		netlist.KindBuf, netlist.KindNot, netlist.KindAnd, netlist.KindNand,
		netlist.KindOr, netlist.KindNor, netlist.KindXor, netlist.KindXnor,
	}
	for _, k := range kinds {
		if _, err := l.AddCell(k.String(), k, []Option{{Delay: delay, Area: 1}}); err != nil {
			panic(err)
		}
	}
	l.FF = ff
	l.Latch = latch
	return l
}

// SigmaFor returns the relative delay standard deviation of the cell
// implementing node n: the bound cell's Sigma for combinational nodes,
// FF/Latch Sigma for sequential ones, and 0 for ports, constants and
// unknown bindings.
func (l *Library) SigmaFor(n *netlist.Node) float64 {
	switch {
	case n.Kind == netlist.KindDFF:
		return l.FF.Sigma
	case n.Kind == netlist.KindLatch:
		return l.Latch.Sigma
	case !n.Kind.IsCombinational():
		return 0
	}
	c, err := l.cellFor(n)
	if err != nil {
		return 0
	}
	return c.Sigma
}
