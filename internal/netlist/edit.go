package netlist

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// EditOp identifies one kind of local netlist modification. The edit set
// covers the ECO-style refinements VirtualSync's incremental path is built
// for: drive-strength changes, cell swaps, single-pin rewires, and
// flip-flop insertion/removal on a wire.
type EditOp int

// Supported edit operations.
const (
	// EditResize changes a node's drive-strength selection.
	EditResize EditOp = iota
	// EditSwapCell rebinds a node to a different library cell.
	EditSwapCell
	// EditRewire redirects one fanin pin of a node to another driver.
	EditRewire
	// EditInsertFF inserts a new flip-flop on one fanin pin of a node.
	EditInsertFF
	// EditRemoveFF collapses a flip-flop onto its data input, wiring its
	// readers directly to that driver.
	EditRemoveFF
)

var editOpNames = map[EditOp]string{
	EditResize:   "resize",
	EditSwapCell: "swap",
	EditRewire:   "rewire",
	EditInsertFF: "insertff",
	EditRemoveFF: "removeff",
}

// String returns the edit-script keyword of the operation.
func (op EditOp) String() string {
	if n, ok := editOpNames[op]; ok {
		return n
	}
	return fmt.Sprintf("EditOp(%d)", int(op))
}

// Edit is one netlist modification, addressed by node name so the same
// edit list applies to any structurally matching copy of the circuit
// (the service applies client edit lists against its own clone).
type Edit struct {
	Op   EditOp
	Node string // target node name

	Drive  int    // EditResize: new drive index
	Cell   string // EditSwapCell: new cell name
	Pin    int    // EditRewire / EditInsertFF: fanin pin index
	Driver string // EditRewire: new driver node name
	Name   string // EditInsertFF: name of the inserted flip-flop
}

// FormatEdit renders an edit in the one-line text format ParseEdits reads.
func FormatEdit(e Edit) string {
	switch e.Op {
	case EditResize:
		return fmt.Sprintf("resize %s %d", e.Node, e.Drive)
	case EditSwapCell:
		return fmt.Sprintf("swap %s %s", e.Node, e.Cell)
	case EditRewire:
		return fmt.Sprintf("rewire %s %d %s", e.Node, e.Pin, e.Driver)
	case EditInsertFF:
		return fmt.Sprintf("insertff %s %s %d", e.Name, e.Node, e.Pin)
	case EditRemoveFF:
		return fmt.Sprintf("removeff %s", e.Node)
	}
	return fmt.Sprintf("? %s", e.Node)
}

// ParseEdits reads an edit script: one edit per line, '#' comments and
// blank lines ignored. The grammar is
//
//	resize <node> <drive>
//	swap <node> <cell>
//	rewire <node> <pin> <driver>
//	insertff <name> <node> <pin>
//	removeff <node>
func ParseEdits(text string) ([]Edit, error) {
	var edits []Edit
	for lineNo, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		bad := func(format string, args ...interface{}) ([]Edit, error) {
			return nil, fmt.Errorf("netlist: edits line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		arity := func(n int) bool { return len(fields) == n+1 }
		num := func(s string) (int, error) { return strconv.Atoi(s) }
		switch fields[0] {
		case "resize":
			if !arity(2) {
				return bad("want: resize <node> <drive>")
			}
			d, err := num(fields[2])
			if err != nil {
				return bad("bad drive %q", fields[2])
			}
			edits = append(edits, Edit{Op: EditResize, Node: fields[1], Drive: d})
		case "swap":
			if !arity(2) {
				return bad("want: swap <node> <cell>")
			}
			edits = append(edits, Edit{Op: EditSwapCell, Node: fields[1], Cell: fields[2]})
		case "rewire":
			if !arity(3) {
				return bad("want: rewire <node> <pin> <driver>")
			}
			pin, err := num(fields[2])
			if err != nil {
				return bad("bad pin %q", fields[2])
			}
			edits = append(edits, Edit{Op: EditRewire, Node: fields[1], Pin: pin, Driver: fields[3]})
		case "insertff":
			if !arity(3) {
				return bad("want: insertff <name> <node> <pin>")
			}
			pin, err := num(fields[3])
			if err != nil {
				return bad("bad pin %q", fields[3])
			}
			edits = append(edits, Edit{Op: EditInsertFF, Name: fields[1], Node: fields[2], Pin: pin})
		case "removeff":
			if !arity(1) {
				return bad("want: removeff <node>")
			}
			edits = append(edits, Edit{Op: EditRemoveFF, Node: fields[1]})
		default:
			return bad("unknown edit op %q", fields[0])
		}
	}
	return edits, nil
}

// FormatEdits renders an edit list in the ParseEdits format, one per line.
func FormatEdits(edits []Edit) string {
	var b strings.Builder
	for _, e := range edits {
		b.WriteString(FormatEdit(e))
		b.WriteByte('\n')
	}
	return b.String()
}

// EditResult summarizes what ApplyEdits changed.
type EditResult struct {
	// Touched are the nodes whose timing view may have changed:
	// resized/swapped gates (delay change), rewired gates (input change)
	// and their former drivers (downstream view change), inserted
	// flip-flops, and the readers of removed flip-flops. They seed the
	// dirty fan-out cone (FanoutCone) whose size an ECO reports.
	Touched []NodeID
}

// ApplyEdits applies the edits to the circuit in order, mutating it in
// place. Node IDs of untouched nodes are stable across the call: inserted
// nodes get fresh IDs at the end, removed flip-flops are tombstoned. On
// error the circuit may be partially edited; callers that need atomicity
// apply edits to a Clone.
func (c *Circuit) ApplyEdits(edits []Edit) (*EditResult, error) {
	res := &EditResult{}
	touched := func(id NodeID) { res.Touched = append(res.Touched, id) }
	for i, e := range edits {
		fail := func(format string, args ...interface{}) (*EditResult, error) {
			return nil, fmt.Errorf("netlist: edit %d (%s): %s", i+1, FormatEdit(e), fmt.Sprintf(format, args...))
		}
		n := c.ByName(e.Node)
		if n == nil {
			return fail("no node %q", e.Node)
		}
		switch e.Op {
		case EditResize:
			if e.Drive < 0 {
				return fail("negative drive %d", e.Drive)
			}
			n.Drive = e.Drive
			touched(n.ID)
		case EditSwapCell:
			n.Cell = e.Cell
			touched(n.ID)
		case EditRewire:
			if e.Pin < 0 || e.Pin >= len(n.Fanins) {
				return fail("node %q has no pin %d", e.Node, e.Pin)
			}
			drv := c.ByName(e.Driver)
			if drv == nil {
				return fail("no driver %q", e.Driver)
			}
			if drv.Kind == KindOutput {
				return fail("driver %q is an output port", e.Driver)
			}
			if drv.ID == n.ID {
				return fail("self-loop on %q", e.Node)
			}
			old := n.Fanins[e.Pin]
			n.Fanins[e.Pin] = drv.ID
			touched(n.ID)
			// The old driver's arrival is unchanged, but its downstream
			// (required-side) view lost this consumer.
			touched(old)
		case EditInsertFF:
			if e.Pin < 0 || e.Pin >= len(n.Fanins) {
				return fail("node %q has no pin %d", e.Node, e.Pin)
			}
			ff, err := c.InsertAtPin(e.Name, KindDFF, n.ID, e.Pin)
			if err != nil {
				return fail("%v", err)
			}
			touched(ff.ID)
			touched(n.ID)
		case EditRemoveFF:
			if n.Kind != KindDFF {
				return fail("node %q is %v, not DFF", e.Node, n.Kind)
			}
			// Collapsing must not create a combinational self-loop through
			// the readers; structural validity is re-checked by the
			// caller's Validate.
			fanouts := c.Fanouts()
			for _, reader := range fanouts[n.ID] {
				touched(reader)
			}
			if err := c.Collapse(n.ID, 0); err != nil {
				return fail("%v", err)
			}
		default:
			return fail("unknown op")
		}
	}
	res.Touched = dedupIDs(res.Touched)
	return res, nil
}

// dedupIDs sorts and deduplicates a NodeID slice in place.
func dedupIDs(ids []NodeID) []NodeID {
	if len(ids) < 2 {
		return ids
	}
	seen := make(map[NodeID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
