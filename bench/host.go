package bench

import (
	"runtime"
	"runtime/debug"
	"syscall"
)

// Host is the reproducibility block printed before every result: the
// machine and toolchain the numbers came from, the exact run, and how
// many samples stand behind each timing.
type Host struct {
	NCPU       int            `json:"ncpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go"`
	GitHead    string         `json:"git_head"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Quick      bool           `json:"quick,omitempty"`
	Samples    map[string]int `json:"samples"`
}

func newHost(o Options) Host {
	return Host{
		NCPU:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitHead:    gitHead(),
		Workload:   o.Workload,
		Seed:       o.Seed,
		Seconds:    o.Seconds,
		Trace:      o.Trace,
		Quick:      o.Quick,
		Samples:    map[string]int{},
	}
}

// gitHead is the commit the binary was built from, as stamped by the Go
// toolchain ("-dirty" marks uncommitted changes), or "unknown" when the
// source tree was not a git checkout.
func gitHead() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
