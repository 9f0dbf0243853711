// Command perfbench is PLANET's benchmark: one command runs one named
// workload for a fixed number of seconds, checks the program's output with
// the workload's correctness oracles, and prints every end-to-end metric by
// name and unit as the last line of standard output:
//
//	perfbench -workload sim-surge -seed 1 -seconds 12 -trace 0
//
// With -trace 1 it prints the per-layer metrics instead: it times calls
// into each layer's public functions and reads the counters and span
// stores the program already exports. On the sim workloads it also reports
// the tracing overhead against untraced passes of the same seed (see
// README.md for why the others cannot). Layers a workload does not
// touch report 0. README.md maps every per-layer metric to the end-to-end
// metric it should move and the workload where it moves it.
//
// The process exits non-zero when an oracle fails or a run cannot finish.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// result is the single JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	planetd string // planetd binary (live-trio)
	workdir string // scratch space for data dirs and WAL copies
}

// outcome is what a workload hands back: raw metric values by name, the
// operation counts, and the first oracle failure (nil when every check
// held).
type outcome struct {
	values    map[string]float64
	attempted uint64
	failed    uint64
	oracleErr error
}

var workloads = map[string]func(runConfig) (outcome, error){
	"sim-surge":      runSurge,
	"sim-contention": runContention,
	"live-trio":      runLive,
	"paper-suite":    runSuite,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sim-surge, sim-contention, live-trio or paper-suite")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 12, "how long to measure, in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics, 0 the end-to-end metrics")
		planetd = flag.String("planetd", "", "planetd binary (live-trio)")
		workdir = flag.String("workdir", os.TempDir(), "directory for data dirs and scratch files")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		planetd: *planetd,
		workdir: *workdir,
	}
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.oracleErr == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		switch {
		case !ok && out.oracleErr != nil:
			// A failed run reports what it measured before the failure.
			continue
		case !ok && !cfg.trace:
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
		// An untouched layer did no work: its per-layer metrics read 0.
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if out.oracleErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: oracle failed: %v\n", *name, out.oracleErr)
		return 1
	}
	return 0
}
