// Command vfuzz drives the differential verification harness from the
// command line: random-case campaigns, regression-seed replay,
// counterexample shrinking, and corpus health statistics.
//
// Usage:
//
//	vfuzz run [-n 500] [-seed 1] [-lanes 64] [-search] [-out DIR] [-budget N] [-cpuprofile F] [-memprofile F]
//	vfuzz replay FILE.bench...
//	vfuzz shrink [-budget 150] [-mutation NAME] [-out DIR] FILE.bench
//	vfuzz corpus-stats [-n 500] [-seed 1] [DIR]
//
// run generates n deterministic random cases, checks each, and on any
// failure shrinks it and stores the minimal counterexample under -out as
// a permanent regression seed; it reports campaign throughput as both
// execs/sec and stimulus lanes/sec (the bit-parallel fast path verifies
// -lanes independent stimulus vectors per exec, up to 4096; -lanes 1
// runs the event-engine oracle alone). replay
// re-checks stored seeds (including re-injecting the mutation a
// sensitivity seed was recorded from).
// shrink minimizes one failing seed, optionally under an injected
// mutation. corpus-stats reports decoder and outcome distributions.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"virtualsync/internal/gen"
	"virtualsync/internal/verify"
)

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vfuzz: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		fatal("usage: vfuzz run|replay|shrink|corpus-stats [flags] [args]")
	}
	cmd, rest := os.Args[1], os.Args[2:]
	switch cmd {
	case "run":
		cmdRun(rest)
	case "replay":
		cmdReplay(rest)
	case "shrink":
		cmdShrink(rest)
	case "corpus-stats":
		cmdCorpusStats(rest)
	default:
		fatal("unknown command %q (want run, replay, shrink or corpus-stats)", cmd)
	}
}

// randomCase derives the i-th deterministic fuzz input of a campaign.
func randomCase(rng *rand.Rand) []byte {
	data := make([]byte, 8+rng.Intn(120))
	rng.Read(data)
	return data
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	n := fs.Int("n", 500, "number of random cases")
	seed := fs.Int64("seed", 1, "campaign seed")
	search := fs.Bool("search", false, "full period search per case (slower, deeper)")
	lanesFlag := fs.Int("lanes", 0, "stimulus lanes per case (0 = default 64, max 4096; 1 = the event-engine oracle alone)")
	out := fs.String("out", "internal/verify/testdata/regressions", "directory for shrunk counterexamples")
	budget := fs.Int("budget", 0, "shrink budget in checks (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile after the campaign to this file")
	fs.Parse(args)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	ck := verify.NewChecker()
	ck.Search = *search
	ck.Lanes = *lanesFlag
	rng := rand.New(rand.NewSource(*seed))
	tally := map[string]int{}
	failures, execs, lanes, fastExecs := 0, 0, 0, 0
	start := time.Now()
	for i := 0; i < *n; i++ {
		data := randomCase(rng)
		d, err := gen.DecodeCase(data)
		if err != nil {
			tally["undecodable"]++
			continue
		}
		rep := ck.Check(d)
		key := rep.Outcome.String()
		if rep.Outcome != verify.Pass {
			key += "/" + rep.Stage
		}
		tally[key]++
		execs++
		lanes += rep.Lanes
		if rep.FastPath {
			fastExecs++
		}
		if rep.Outcome != verify.Fail {
			continue
		}
		failures++
		fmt.Printf("case %d FAILS: %v\n", i, rep)
		shrunk, spent := ck.Shrink(d, *budget)
		path, err := verify.SaveRegression(*out, shrunk, rep.String())
		if err != nil {
			fatal("saving counterexample: %v", err)
		}
		fmt.Printf("  shrunk in %d checks -> %s\n", spent, path)
	}
	elapsed := time.Since(start)
	keys := make([]string, 0, len(tally))
	for k := range tally {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%d cases:", *n)
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, tally[k])
	}
	fmt.Println()
	if s := elapsed.Seconds(); s > 0 && execs > 0 {
		fmt.Printf("%d execs in %v: %.1f execs/sec, %d stimulus lanes at width %d (%.1f lanes/sec), fast path on %d/%d\n",
			execs, elapsed.Round(time.Millisecond), float64(execs)/s, lanes, ck.LaneWidth(), float64(lanes)/s, fastExecs, execs)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal("memprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			fatal("memprofile: %v", err)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 {
		fatal("replay needs at least one seed file or directory")
	}
	var files []string
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil && st.IsDir() {
			dirFiles, err := verify.RegressionFiles(p)
			if err != nil {
				fatal("%v", err)
			}
			files = append(files, dirFiles...)
		} else {
			files = append(files, p)
		}
	}
	bad := 0
	for _, path := range files {
		seed, err := verify.LoadRegression(path)
		if err != nil {
			fatal("%v", err)
		}
		rep := verify.NewChecker().Check(seed.Case)
		status := rep.String()
		if rep.Outcome == verify.Fail {
			bad++
		}
		// Sensitivity seeds must still be detected with their mutation
		// re-injected.
		if name := mutationOf(seed.Note); name != "" {
			mut := verify.MutationByName(name)
			if mut == nil {
				bad++
				status += fmt.Sprintf("; UNKNOWN mutation %q", name)
			} else {
				mck := verify.NewChecker()
				mck.Mutate = mut
				if mrep := mck.Check(seed.Case); mrep.Outcome == verify.Fail {
					status += fmt.Sprintf("; mutation %s still detected [%s]", name, mrep.Stage)
				} else {
					bad++
					status += fmt.Sprintf("; mutation %s NOT detected (%v)", name, mrep)
				}
			}
		}
		fmt.Printf("%s: %s\n", path, status)
	}
	if bad > 0 {
		fatal("%d of %d seeds misbehaved", bad, len(files))
	}
}

func mutationOf(note string) string {
	if !strings.HasPrefix(note, "mutation=") {
		return ""
	}
	name := strings.TrimPrefix(note, "mutation=")
	if i := strings.IndexByte(name, ';'); i >= 0 {
		name = name[:i]
	}
	return strings.TrimSpace(name)
}

func cmdShrink(args []string) {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	budget := fs.Int("budget", 0, "shrink budget in checks (0 = default)")
	mutation := fs.String("mutation", "", "inject this bug class while shrinking")
	out := fs.String("out", "", "write the shrunk seed here (default: print to stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal("shrink needs exactly one seed file")
	}
	seed, err := verify.LoadRegression(fs.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	ck := verify.NewChecker()
	note := seed.Note
	if *mutation != "" {
		ck.Mutate = verify.MutationByName(*mutation)
		if ck.Mutate == nil {
			fatal("unknown mutation %q", *mutation)
		}
		note = "mutation=" + *mutation
	}
	rep := ck.Check(seed.Case)
	if rep.Outcome != verify.Fail {
		fatal("case does not fail (%v); nothing to shrink", rep)
	}
	shrunk, spent := ck.Shrink(seed.Case, *budget)
	final := ck.Check(shrunk)
	fmt.Fprintf(os.Stderr, "shrunk in %d checks, still failing: %v\n", spent, final)
	if *out == "" {
		fmt.Print(verify.FormatRegression(shrunk, note+"; "+final.String()))
		return
	}
	path, err := verify.SaveRegression(*out, shrunk, note+"; "+final.String())
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(path)
}

func cmdCorpusStats(args []string) {
	fs := flag.NewFlagSet("corpus-stats", flag.ExitOnError)
	n := fs.Int("n", 500, "random cases to sample")
	seed := fs.Int64("seed", 1, "campaign seed")
	fs.Parse(args)

	// Stored corpus, if a directory is given.
	if fs.NArg() > 0 {
		files, err := verify.RegressionFiles(fs.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("stored corpus %s: %d seeds\n", fs.Arg(0), len(files))
		for _, path := range files {
			s, err := verify.LoadRegression(path)
			if err != nil {
				fatal("%v", err)
			}
			st := s.Case.Circuit.Stats()
			fmt.Printf("  %s: %d gates, %d DFFs, %d latches, cycles=%d  %s\n",
				path, st.Gates, st.DFFs, st.Latches, s.Case.Cycles, s.Note)
		}
	}

	ck := verify.NewChecker()
	rng := rand.New(rand.NewSource(*seed))
	var decoded, gates, dffs int
	outcomes := map[string]int{}
	for i := 0; i < *n; i++ {
		d, err := gen.DecodeCase(randomCase(rng))
		if err != nil {
			outcomes["undecodable"]++
			continue
		}
		decoded++
		st := d.Circuit.Stats()
		gates += st.Gates
		dffs += st.DFFs
		rep := ck.Check(d)
		key := rep.Outcome.String()
		if rep.Outcome == verify.Skip {
			key += "/" + rep.Stage
		}
		outcomes[key]++
	}
	fmt.Printf("random sample: %d/%d decodable", decoded, *n)
	if decoded > 0 {
		fmt.Printf(", avg %.1f gates, %.1f DFFs", float64(gates)/float64(decoded), float64(dffs)/float64(decoded))
	}
	fmt.Println()
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-20s %d\n", k, outcomes[k])
	}
}
