package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements reading and writing of circuits in an extended
// ISCAS89 ".bench" dialect:
//
//	# comment
//	INPUT(a)
//	OUTPUT(z)
//	f1 = DFF(a)
//	l1 = LATCH(g2) @0.5        # optional clock phase as fraction of T
//	g1 = NAND(f1, a)
//	g2 = NOT(g1) [NOT:2]       # optional cell binding cell:drive
//	z  = BUF(g2)
//
// OUTPUT(z) declares that net z feeds a primary output; the writer emits
// the same form. Internally an Output node named "z$po" is created with z
// as its fanin, so net names stay unique.

// outputSuffix distinguishes the implicit Output node from the net that
// feeds it.
const outputSuffix = "$po"

// Parse reads a circuit in .bench format.
func Parse(r io.Reader, name string) (*Circuit, error) {
	c := New(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	type pending struct {
		name   string
		kind   Kind
		args   []string
		cell   string
		drive  int
		phase  float64
		lineNo int
	}
	var defs []pending
	var outputs []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "INPUT(") || strings.HasPrefix(line, "INPUT ("):
			arg, err := parseParen(line, "INPUT")
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if _, err := c.Add(arg, KindInput); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		case strings.HasPrefix(line, "OUTPUT(") || strings.HasPrefix(line, "OUTPUT ("):
			arg, err := parseParen(line, "OUTPUT")
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			outputs = append(outputs, arg)
		default:
			p, err := parseAssign(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			p.lineNo = lineNo
			defs = append(defs, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: read: %v", err)
	}

	// First pass: create all defined nodes so forward references resolve.
	for _, d := range defs {
		n, err := c.Add(d.name, d.kind)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", d.lineNo, err)
		}
		n.Cell = d.cell
		n.Drive = d.drive
		n.Phase = d.phase
	}
	// Second pass: wire fanins.
	for _, d := range defs {
		n := c.ByName(d.name)
		for _, a := range d.args {
			src := c.ByName(a)
			if src == nil {
				return nil, fmt.Errorf("line %d: %q references undefined net %q", d.lineNo, d.name, a)
			}
			n.Fanins = append(n.Fanins, src.ID)
		}
		min, max := n.Kind.MinFanins(), n.Kind.MaxFanins()
		if len(n.Fanins) < min || (max >= 0 && len(n.Fanins) > max) {
			return nil, fmt.Errorf("line %d: %v %q has %d fanins", d.lineNo, n.Kind, n.Name, len(n.Fanins))
		}
	}
	for _, o := range outputs {
		src := c.ByName(o)
		if src == nil {
			return nil, fmt.Errorf("netlist: OUTPUT(%s) references undefined net", o)
		}
		if _, err := c.Add(o+outputSuffix, KindOutput, src.ID); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseString is Parse over a string.
func ParseString(s, name string) (*Circuit, error) {
	return Parse(strings.NewReader(s), name)
}

func parseParen(line, kw string) (string, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, kw))
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("malformed %s line %q", kw, line)
	}
	arg := strings.TrimSpace(rest[1 : len(rest)-1])
	if arg == "" {
		return "", fmt.Errorf("empty %s argument", kw)
	}
	return arg, nil
}

func parseAssign(line string) (p struct {
	name   string
	kind   Kind
	args   []string
	cell   string
	drive  int
	phase  float64
	lineNo int
}, err error) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return p, fmt.Errorf("expected assignment, got %q", line)
	}
	p.name = strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])

	// Optional trailing annotations: [cell:drive] and @phase, any order.
	for {
		switch {
		case strings.HasSuffix(rhs, "]"):
			i := strings.LastIndex(rhs, "[")
			if i < 0 {
				return p, fmt.Errorf("unmatched ']' in %q", line)
			}
			ann := rhs[i+1 : len(rhs)-1]
			rhs = strings.TrimSpace(rhs[:i])
			parts := strings.SplitN(ann, ":", 2)
			p.cell = strings.TrimSpace(parts[0])
			if len(parts) == 2 {
				d, err := strconv.Atoi(strings.TrimSpace(parts[1]))
				if err != nil {
					return p, fmt.Errorf("bad drive in %q: %v", ann, err)
				}
				p.drive = d
			}
			continue
		}
		if i := strings.LastIndex(rhs, "@"); i >= 0 && !strings.ContainsAny(rhs[i:], ")") {
			ph, err := strconv.ParseFloat(strings.TrimSpace(rhs[i+1:]), 64)
			if err != nil {
				return p, fmt.Errorf("bad phase in %q: %v", line, err)
			}
			if !(ph >= 0 && ph < 1) {
				return p, fmt.Errorf("phase %g out of [0,1) in %q", ph, line)
			}
			p.phase = ph
			rhs = strings.TrimSpace(rhs[:i])
			continue
		}
		break
	}

	op := strings.Index(rhs, "(")
	if op < 0 || !strings.HasSuffix(rhs, ")") {
		return p, fmt.Errorf("expected KIND(args) in %q", line)
	}
	kindName := strings.ToUpper(strings.TrimSpace(rhs[:op]))
	kind, ok := KindFromString(kindName)
	if !ok {
		return p, fmt.Errorf("unknown gate kind %q", kindName)
	}
	if kind == KindInput || kind == KindOutput {
		return p, fmt.Errorf("kind %v cannot appear in an assignment", kind)
	}
	p.kind = kind
	inner := strings.TrimSpace(rhs[op+1 : len(rhs)-1])
	if inner != "" {
		for _, a := range strings.Split(inner, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return p, fmt.Errorf("empty fanin in %q", line)
			}
			p.args = append(p.args, a)
		}
	}
	return p, nil
}

// Write emits the circuit in the same dialect accepted by Parse. Nodes are
// written inputs first, then assignments in topological order when the
// circuit is acyclic (falling back to ID order otherwise), then OUTPUT
// declarations.
func Write(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# circuit %s\n", c.Name)
	st := c.Stats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates, %d DFFs, %d latches\n",
		st.Inputs, st.Outputs, st.Gates, st.DFFs, st.Latches)

	for _, n := range c.Inputs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", n.Name)
	}
	var outs []string
	for _, n := range c.Outputs() {
		src := c.Node(n.Fanins[0])
		outs = append(outs, src.Name)
	}
	sort.Strings(outs)
	for _, o := range outs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", o)
	}

	order, err := c.TopoOrder()
	if err != nil {
		order = nil
		c.Live(func(n *Node) { order = append(order, n) })
	}
	for _, n := range order {
		if n.Kind.IsPort() {
			continue
		}
		names := make([]string, len(n.Fanins))
		for i, f := range n.Fanins {
			names[i] = c.Node(f).Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)", n.Name, n.Kind, strings.Join(names, ", "))
		if n.Kind.IsSequential() && n.Phase != 0 {
			fmt.Fprintf(bw, " @%g", n.Phase)
		}
		if n.Cell != "" {
			if n.Drive != 0 {
				fmt.Fprintf(bw, " [%s:%d]", n.Cell, n.Drive)
			} else {
				fmt.Fprintf(bw, " [%s]", n.Cell)
			}
		} else if n.Drive != 0 {
			fmt.Fprintf(bw, " [%s:%d]", n.Kind, n.Drive)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// String renders the circuit via Write.
func (c *Circuit) String() string {
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		return fmt.Sprintf("<error: %v>", err)
	}
	return sb.String()
}
