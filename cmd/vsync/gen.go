package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"virtualsync"
)

// runGen is "vsync gen": it writes one built-in benchmark circuit (or
// the whole suite) as .bench or structural Verilog. The flag set keeps
// the name of the former vgen command, so its usage text is unchanged.
func runGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vgen", flag.ContinueOnError)
	benchName := fs.String("bench", "", "benchmark name to generate")
	all := fs.Bool("all", false, "generate the whole suite")
	outPath := fs.String("o", "", "output file (default: stdout)")
	dir := fs.String("dir", ".", "output directory for -all")
	verilog := fs.Bool("verilog", false, "emit structural Verilog instead of .bench")
	if ok, err := parseFlags(fs, args, out); !ok {
		return err
	}

	emit := func(w io.Writer, c *virtualsync.Circuit) error {
		if *verilog {
			return virtualsync.WriteVerilog(w, c)
		}
		return virtualsync.WriteCircuit(w, c)
	}
	switch {
	case *all:
		for _, name := range virtualsync.BenchmarkNames() {
			c := virtualsync.GenerateBenchmark(name)
			path := filepath.Join(*dir, name+".bench")
			if err := writeFile(path, func(w io.Writer) error { return emit(w, c) }); err != nil {
				return err
			}
			st := c.Stats()
			fmt.Fprintf(out, "%-12s -> %s (%d gates, %d FFs)\n", name, path, st.Gates, st.DFFs)
		}
		return nil
	case *benchName != "":
		c := virtualsync.GenerateBenchmark(*benchName)
		if *outPath == "" {
			return emit(out, c)
		}
		return writeFile(*outPath, func(w io.Writer) error { return emit(w, c) })
	default:
		return fmt.Errorf("need -bench <name> or -all; names: %v", virtualsync.BenchmarkNames())
	}
}
