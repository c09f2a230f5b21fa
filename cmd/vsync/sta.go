package main

import (
	"flag"
	"fmt"
	"io"

	"virtualsync"
)

// runSTA is "vsync sta": static timing analysis of one circuit. The
// flag set keeps the name of the former vsta command, so its usage
// text is unchanged.
func runSTA(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vsta", flag.ContinueOnError)
	libPath := fs.String("lib", "", "cell library file (default: built-in vs45)")
	benchName := fs.String("bench", "", "generate a built-in benchmark instead of reading a file")
	period := fs.Float64("T", 0, "report slacks at this period (default: the minimum period)")
	worst := fs.Int("worst", 3, "number of worst endpoints to report")
	if ok, err := parseFlags(fs, args, out); !ok {
		return err
	}

	lib, err := loadLib(*libPath)
	if err != nil {
		return err
	}
	c, err := loadCircuit(*benchName, fs.Arg(0))
	if err != nil {
		return err
	}
	r, err := virtualsync.AnalyzeTiming(c, lib)
	if err != nil {
		return err
	}
	st := c.Stats()
	fmt.Fprintf(out, "circuit %s: %d inputs, %d outputs, %d gates, %d FFs, %d latches\n",
		c.Name, st.Inputs, st.Outputs, st.Gates, st.DFFs, st.Latches)
	T := *period
	if T <= 0 {
		T = r.MinPeriod
	}
	fmt.Fprint(out, r.FormatReport(c, lib, T, *worst))
	if len(r.HoldViolations) > 0 {
		fmt.Fprintf(out, "hold violations at %d endpoints:\n", len(r.HoldViolations))
		for _, id := range r.HoldViolations {
			fmt.Fprintf(out, "  %s\n", c.Node(id).Name)
		}
		return errReported
	}
	return nil
}
