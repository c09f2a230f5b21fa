// Package netlist provides a gate-level circuit representation for timing
// optimization: combinational gates, flip-flops, level-sensitive latches,
// primary inputs/outputs and the connectivity between them.
//
// The representation is index-based: every node has a stable NodeID that is
// an index into Circuit.Nodes. Edits (inserting buffers, removing
// flip-flops, rewiring fanins) keep existing IDs valid; removed nodes are
// tombstoned and skipped by iteration helpers.
package netlist

import "fmt"

// Kind identifies the function of a node.
type Kind int

// Node kinds. Input and Output are circuit ports; DFF and Latch are
// sequential elements; the rest are combinational gates.
const (
	KindInvalid Kind = iota
	KindInput
	KindOutput
	KindBuf
	KindNot
	KindAnd
	KindNand
	KindOr
	KindNor
	KindXor
	KindXnor
	KindDFF
	KindLatch
	KindConst0
	KindConst1
)

var kindNames = map[Kind]string{
	KindInvalid: "INVALID",
	KindInput:   "INPUT",
	KindOutput:  "OUTPUT",
	KindBuf:     "BUF",
	KindNot:     "NOT",
	KindAnd:     "AND",
	KindNand:    "NAND",
	KindOr:      "OR",
	KindNor:     "NOR",
	KindXor:     "XOR",
	KindXnor:    "XNOR",
	KindDFF:     "DFF",
	KindLatch:   "LATCH",
	KindConst0:  "CONST0",
	KindConst1:  "CONST1",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	// Common aliases found in .bench dialects.
	m["BUFF"] = KindBuf
	m["INV"] = KindNot
	m["DFFSR"] = KindDFF
	return m
}()

// String returns the canonical upper-case name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromString parses a kind name (case-sensitive, upper case).
// The second result reports whether the name was recognized.
func KindFromString(s string) (Kind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

// IsCombinational reports whether the kind is a combinational gate
// (including buffers and inverters, excluding ports, constants and
// sequential elements).
func (k Kind) IsCombinational() bool {
	switch k {
	case KindBuf, KindNot, KindAnd, KindNand, KindOr, KindNor, KindXor, KindXnor:
		return true
	}
	return false
}

// IsSequential reports whether the kind is a flip-flop or latch.
func (k Kind) IsSequential() bool { return k == KindDFF || k == KindLatch }

// IsPort reports whether the kind is a primary input or output.
func (k Kind) IsPort() bool { return k == KindInput || k == KindOutput }

// IsConst reports whether the kind is a constant driver.
func (k Kind) IsConst() bool { return k == KindConst0 || k == KindConst1 }

// MinFanins returns the minimum legal fanin count for the kind.
func (k Kind) MinFanins() int {
	switch k {
	case KindInput, KindConst0, KindConst1:
		return 0
	case KindOutput, KindBuf, KindNot, KindDFF, KindLatch:
		return 1
	default:
		return 2
	}
}

// MaxFanins returns the maximum legal fanin count for the kind, or -1 for
// unbounded.
func (k Kind) MaxFanins() int {
	switch k {
	case KindInput, KindConst0, KindConst1:
		return 0
	case KindOutput, KindBuf, KindNot, KindDFF, KindLatch:
		return 1
	default:
		return -1
	}
}

// NodeID identifies a node within a Circuit. The zero-value-minus-one
// sentinel InvalidID never names a node.
type NodeID int

// InvalidID is the sentinel for "no node".
const InvalidID NodeID = -1

// Node is one element of a circuit. Fanins are ordered; gate semantics are
// symmetric for all supported kinds except that position matters for
// reproducibility of generated circuits.
type Node struct {
	ID     NodeID
	Name   string
	Kind   Kind
	Fanins []NodeID

	// Cell names the library cell implementing the node; empty means the
	// library default for the kind. Drive selects the drive-strength
	// variant within the cell (0 = weakest).
	Cell  string
	Drive int

	// Phase is the clock phase shift of a sequential node, as a fraction
	// of the clock period in [0,1). Only meaningful for DFF and Latch.
	Phase float64

	dead bool
}

// LatchDuty is the clock duty cycle D of every latch. A latch of phase p
// in clock cycle k is opaque from kT+pT until kT+pT+D*T and transparent
// from then until (k+1)T+pT, where it closes again. The optimizer's
// latch model and all three simulators read this one value.
const LatchDuty = 0.5

// Dead reports whether the node has been removed from its circuit.
func (n *Node) Dead() bool { return n == nil || n.dead }

// Circuit is a mutable gate-level netlist.
type Circuit struct {
	Name  string
	Nodes []*Node

	byName map[string]NodeID
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]NodeID)}
}

// Len returns the number of live nodes.
func (c *Circuit) Len() int {
	n := 0
	for _, nd := range c.Nodes {
		if !nd.Dead() {
			n++
		}
	}
	return n
}

// Node returns the node with the given ID, or nil if the ID is out of range
// or the node has been removed.
func (c *Circuit) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(c.Nodes) {
		return nil
	}
	n := c.Nodes[id]
	if n.dead {
		return nil
	}
	return n
}

// ByName returns the live node with the given name, or nil.
func (c *Circuit) ByName(name string) *Node {
	id, ok := c.byName[name]
	if !ok {
		return nil
	}
	return c.Node(id)
}

// Add creates a node with the given name, kind and fanins and returns it.
// It returns an error if the name is already taken or a fanin is invalid.
func (c *Circuit) Add(name string, kind Kind, fanins ...NodeID) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("netlist: empty node name")
	}
	if _, ok := c.byName[name]; ok {
		return nil, fmt.Errorf("netlist: duplicate node name %q", name)
	}
	for _, f := range fanins {
		if c.Node(f) == nil {
			return nil, fmt.Errorf("netlist: node %q references invalid fanin %d", name, f)
		}
	}
	n := &Node{
		ID:     NodeID(len(c.Nodes)),
		Name:   name,
		Kind:   kind,
		Fanins: append([]NodeID(nil), fanins...),
	}
	c.Nodes = append(c.Nodes, n)
	c.byName[name] = n.ID
	return n, nil
}

// MustAdd is Add but panics on error; intended for hand-built test circuits
// and the benchmark generator where names are known to be fresh.
func (c *Circuit) MustAdd(name string, kind Kind, fanins ...NodeID) *Node {
	n, err := c.Add(name, kind, fanins...)
	if err != nil {
		panic(err)
	}
	return n
}

// Remove deletes the node from the circuit. The caller must first rewire
// any fanouts; Remove returns an error if live fanouts remain.
func (c *Circuit) Remove(id NodeID) error {
	n := c.Node(id)
	if n == nil {
		return fmt.Errorf("netlist: remove: no node %d", id)
	}
	for _, m := range c.Nodes {
		if m.dead {
			continue
		}
		for _, f := range m.Fanins {
			if f == id {
				return fmt.Errorf("netlist: remove: node %q still drives %q", n.Name, m.Name)
			}
		}
	}
	n.dead = true
	delete(c.byName, n.Name)
	return nil
}

// Bypass rewires all fanouts of node id to read from its single fanin, so
// that id can subsequently be removed. It fails for nodes without exactly
// one fanin.
func (c *Circuit) Bypass(id NodeID) error {
	n := c.Node(id)
	if n == nil {
		return fmt.Errorf("netlist: bypass: no node %d", id)
	}
	if len(n.Fanins) != 1 {
		return fmt.Errorf("netlist: bypass: node %q has %d fanins", n.Name, len(n.Fanins))
	}
	src := n.Fanins[0]
	for _, m := range c.Nodes {
		if m.dead || m.ID == id {
			continue
		}
		for i, f := range m.Fanins {
			if f == id {
				m.Fanins[i] = src
			}
		}
	}
	return nil
}

// InsertAtPin creates a new single-fanin node of the given kind on exactly
// one fanin pin of dst: the new node reads dst's current fanin at that pin
// and dst's pin is redirected to it. Other pins of dst reading the same
// driver are untouched.
func (c *Circuit) InsertAtPin(name string, kind Kind, dst NodeID, pin int) (*Node, error) {
	d := c.Node(dst)
	if d == nil {
		return nil, fmt.Errorf("netlist: insertAtPin: no node %d", dst)
	}
	if pin < 0 || pin >= len(d.Fanins) {
		return nil, fmt.Errorf("netlist: insertAtPin: node %q has no pin %d", d.Name, pin)
	}
	n, err := c.Add(name, kind, d.Fanins[pin])
	if err != nil {
		return nil, err
	}
	d.Fanins[pin] = n.ID
	return n, nil
}

// Fanouts computes the fanout lists of all live nodes, indexed by NodeID.
// Dead nodes have nil entries.
func (c *Circuit) Fanouts() [][]NodeID {
	out := make([][]NodeID, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.dead {
			continue
		}
		for _, f := range n.Fanins {
			out[f] = append(out[f], n.ID)
		}
	}
	return out
}

// Inputs returns the live primary inputs in ID order.
func (c *Circuit) Inputs() []*Node { return c.byKind(KindInput) }

// Outputs returns the live primary outputs in ID order.
func (c *Circuit) Outputs() []*Node { return c.byKind(KindOutput) }

// FlipFlops returns the live DFF nodes in ID order.
func (c *Circuit) FlipFlops() []*Node { return c.byKind(KindDFF) }

// Latches returns the live latch nodes in ID order.
func (c *Circuit) Latches() []*Node { return c.byKind(KindLatch) }

// Gates returns all live combinational gates in ID order.
func (c *Circuit) Gates() []*Node {
	var out []*Node
	for _, n := range c.Nodes {
		if !n.dead && n.Kind.IsCombinational() {
			out = append(out, n)
		}
	}
	return out
}

func (c *Circuit) byKind(k Kind) []*Node {
	var out []*Node
	for _, n := range c.Nodes {
		if !n.dead && n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// Live calls fn for every live node in ID order.
func (c *Circuit) Live(fn func(*Node)) {
	for _, n := range c.Nodes {
		if !n.dead {
			fn(n)
		}
	}
}

// Stats summarizes a circuit.
type Stats struct {
	Inputs   int
	Outputs  int
	Gates    int
	DFFs     int
	Latches  int
	MaxFanin int
}

// Stats computes summary statistics over live nodes.
func (c *Circuit) Stats() Stats {
	var s Stats
	for _, n := range c.Nodes {
		if n.dead {
			continue
		}
		switch {
		case n.Kind == KindInput:
			s.Inputs++
		case n.Kind == KindOutput:
			s.Outputs++
		case n.Kind == KindDFF:
			s.DFFs++
		case n.Kind == KindLatch:
			s.Latches++
		case n.Kind.IsCombinational():
			s.Gates++
		}
		if len(n.Fanins) > s.MaxFanin {
			s.MaxFanin = len(n.Fanins)
		}
	}
	return s
}

// Clone returns a deep copy of the circuit. Node IDs are preserved,
// including tombstones, so IDs recorded against the original remain valid
// against the clone.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{
		Name:   c.Name,
		Nodes:  make([]*Node, len(c.Nodes)),
		byName: make(map[string]NodeID, len(c.byName)),
	}
	for i, n := range c.Nodes {
		cp := *n
		cp.Fanins = append([]NodeID(nil), n.Fanins...)
		out.Nodes[i] = &cp
		if !n.dead {
			out.byName[n.Name] = n.ID
		}
	}
	return out
}

// Validate checks structural well-formedness: fanin counts legal for each
// kind, fanin references live, names unique and consistent with the index,
// and every output driven.
func (c *Circuit) Validate() error {
	seen := make(map[string]NodeID)
	for i, n := range c.Nodes {
		if n == nil {
			return fmt.Errorf("netlist: nil node at index %d", i)
		}
		if n.ID != NodeID(i) {
			return fmt.Errorf("netlist: node %q has ID %d at index %d", n.Name, n.ID, i)
		}
		if n.dead {
			continue
		}
		if prev, ok := seen[n.Name]; ok {
			return fmt.Errorf("netlist: duplicate name %q (nodes %d and %d)", n.Name, prev, n.ID)
		}
		seen[n.Name] = n.ID
		if got, ok := c.byName[n.Name]; !ok || got != n.ID {
			return fmt.Errorf("netlist: name index stale for %q", n.Name)
		}
		min, max := n.Kind.MinFanins(), n.Kind.MaxFanins()
		if len(n.Fanins) < min || (max >= 0 && len(n.Fanins) > max) {
			return fmt.Errorf("netlist: node %q (%v) has %d fanins, want [%d,%d]",
				n.Name, n.Kind, len(n.Fanins), min, max)
		}
		for _, f := range n.Fanins {
			if c.Node(f) == nil {
				return fmt.Errorf("netlist: node %q references dead or missing fanin %d", n.Name, f)
			}
			if fn := c.Node(f); fn.Kind == KindOutput {
				return fmt.Errorf("netlist: node %q reads from output port %q", n.Name, fn.Name)
			}
		}
	}
	return nil
}

// TopoOrder returns the live nodes in a topological order of the
// combinational graph: sequential elements, inputs and constants are
// treated as sources (their fanins do not induce ordering edges).
// It returns an error if the combinational subgraph contains a cycle.
func (c *Circuit) TopoOrder() ([]*Node, error) {
	indeg := make([]int, len(c.Nodes))
	fanouts := make([][]NodeID, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.dead {
			continue
		}
		if !n.Kind.IsSequential() {
			for _, f := range n.Fanins {
				fanouts[f] = append(fanouts[f], n.ID)
				indeg[n.ID]++
			}
		}
	}
	var queue []NodeID
	for _, n := range c.Nodes {
		if !n.dead && indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	var order []*Node
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, c.Nodes[id])
		for _, m := range fanouts[id] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(order) != c.Len() {
		return nil, fmt.Errorf("netlist: combinational cycle detected (%d of %d nodes ordered)",
			len(order), c.Len())
	}
	return order, nil
}
