// Command vbench runs one workload of the end-to-end benchmark, or
// compares two sets of saved runs.
//
//	vbench -workload flow -seed 1 -seconds 15 -trace 0
//	vbench compare [-config BENCHMARK.json] a1.out a2.out -- b1.out b2.out
//
// A run prints a {"host": ...} reproducibility line and, as its last
// line, the result: {"correct", "attempted", "failed", "metrics"}. With
// -trace 1 the metrics are the per-layer ones and the spans go to
// -trace-out. Flags also accept the double-dash form (--workload).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"virtualsync/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	workload := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", bench.Workloads))
	seed := flag.Int64("seed", 0, "seed of the generated stimulus, names and request order")
	seconds := flag.Int("seconds", 15, "run length on the reference host; sizes the timed work")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	traceOut := flag.String("trace-out", "", "file for a traced run's spans (default .bench_build/vbench-trace-<workload>-<seed>.json)")
	quick := flag.Bool("quick", false, "smoke scale: one small circuit, one set-up")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	o := bench.Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		TraceOut: *traceOut, Quick: *quick, Log: os.Stderr}
	if o.Trace && o.TraceOut == "" {
		o.TraceOut = filepath.Join(".bench_build", fmt.Sprintf("vbench-trace-%s-%d.json", o.Workload, o.Seed))
		if err := os.MkdirAll(filepath.Dir(o.TraceOut), 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	rep, err := bench.Run(context.Background(), o)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"host": rep.Host}); err != nil {
		fatalf("%v", err)
	}
	if err := enc.Encode(rep.Result); err != nil {
		fatalf("%v", err)
	}
}

// compare implements "vbench compare": it exits 0 when no end-to-end
// metric regressed beyond its bound, 1 when one did and 2 when the sets
// cannot be compared.
func compare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	cfgPath := fs.String("config", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Parse(args)
	var sets [2][]*bench.Saved
	i := 0
	for _, a := range fs.Args() {
		if a == "--" {
			i++
			continue
		}
		if i > 1 {
			fmt.Fprintln(os.Stderr, "vbench compare: more than one --")
			return 2
		}
		s, err := bench.ReadSaved(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vbench compare:", err)
			return 2
		}
		sets[i] = append(sets[i], s)
	}
	cfg, err := bench.LoadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench compare:", err)
		return 2
	}
	switch err := bench.Compare(os.Stdout, cfg, sets[0], sets[1]); {
	case errors.Is(err, bench.ErrRegression):
		return 1
	case err != nil:
		fmt.Fprintln(os.Stderr, "vbench:", err)
		return 2
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vbench: "+format+"\n", args...)
	os.Exit(1)
}
