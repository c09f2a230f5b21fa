package main

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"virtualsync"
	"virtualsync/internal/sim"
)

// runSim is "vsync sim": event-driven timing simulation of one circuit
// on random stimulus, or with -compare the equivalence verdict against
// a second circuit. The flag set keeps the name of the former vsim
// command, so its usage text is unchanged.
func runSim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vsim", flag.ContinueOnError)
	libPath := fs.String("lib", "", "cell library file (default: built-in vs45)")
	benchName := fs.String("bench", "", "generate a built-in benchmark instead of reading a file")
	period := fs.Float64("T", 0, "clock period (default: STA minimum period)")
	cycles := fs.Int("cycles", 32, "cycles to simulate")
	seed := fs.Int64("seed", 1, "stimulus seed")
	vcdPath := fs.String("vcd", "", "write a VCD waveform dump to this file")
	compare := fs.String("compare", "", "second circuit to compare against")
	period2 := fs.Float64("T2", 0, "clock period of the second circuit (default: same as -T)")
	warmup := fs.Int("warmup", 8, "cycles to skip when comparing")
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
	T := *period
	if T <= 0 {
		if T, err = virtualsync.MinPeriod(c, lib); err != nil {
			return err
		}
	}

	if *compare != "" {
		other, err := loadCircuit("", *compare)
		if err != nil {
			return err
		}
		T2 := *period2
		if T2 <= 0 {
			T2 = T
		}
		v, err := sim.CheckEquivalence(c, other, lib, T, T2, *warmup, sim.LaneStimulus(c, *cycles, 0, *seed, 1))
		if err != nil {
			return err
		}
		if v.OK() {
			fmt.Fprintf(out, "equivalent over %d cycles (warmup %d)\n", *cycles, *warmup)
			return nil
		}
		fmt.Fprintf(out, "%d mismatches:\n", len(v.Mismatches))
		for i, m := range v.Mismatches {
			if i >= 10 {
				fmt.Fprintln(out, "  ...")
				break
			}
			fmt.Fprintf(out, "  %v\n", m)
		}
		return errReported
	}

	stim := sim.RandomStimulus(c, *cycles, *seed)
	opts := sim.Options{T: T, Cycles: *cycles}
	var tr sim.Trace
	if *vcdPath != "" {
		err := writeFile(*vcdPath, func(w io.Writer) (err error) {
			tr, err = sim.DumpVCD(c, lib, opts, stim, w)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "waveforms written to %s\n", *vcdPath)
	} else {
		s, err := sim.New(c, lib, opts)
		if err != nil {
			return err
		}
		if tr, err = s.Run(stim); err != nil {
			return err
		}
	}

	// Print flip-flop and output traces as bit strings.
	names := make([]string, 0, len(tr))
	for n := range tr {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-24s ", n)
		for _, v := range tr[n] {
			if v {
				fmt.Fprint(out, "1")
			} else {
				fmt.Fprint(out, "0")
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}
