// Command tytanbench is the repository's performance benchmark:
// closed-loop workloads driven through the layers' public APIs from one
// process, every operation checked against its pinned deterministic
// output. BENCHMARK.json at the repository root lists the three it
// gates; engine-kernel is built in but not listed. README.md in this
// directory says why each workload exists and which layer metric should
// move which end-to-end metric.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash tytanbench/run.sh --workload secure-load --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs the workload first untraced and then with a CPU profile, a heap
// profile and spans on, and prints the per-layer metrics plus the
// tracing overhead. Every metric is printed by name with its unit; the
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// minOps is the floor on completed ops in each measured phase, so
	// that at least ten latency samples lie beyond p99.
	minOps int
	// setups is the least number of times set-up runs; setup_s is
	// the median.
	setups int
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	cfg := config{minOps: 1000, setups: 5}
	fs := flag.NewFlagSet("tytanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = *traceFlag == 1
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tytanbench:", err)
		return 2
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "tytanbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "tytanbench:", err)
		return 1
	}
	return 0
}
