// Command ftbench runs the repository's benchmark (package repro/bench).
//
//	ftbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-json runs.jsonl] [-workdir dir]
//	ftbench compare a.jsonl b.jsonl
//
// A run prints every metric it measured — name, value, unit, sample count,
// quartiles and tail — and, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// Without -workload every workload runs in turn, each ending in its own
// JSON line. -json appends the full report, raw samples included, to a
// JSONL file; compare reads two such files. The exit status is 1 when any
// output check failed.
//
// Run it from the repository root with bench/run.sh, which builds it with
// every cache and output kept under .bench_build, or from bench/ with
// go run ./cmd/ftbench.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/bench"
)

// boolValue is a flag that takes an explicit value (-trace 1, --trace 0),
// unlike a bool flag, which would read "--trace 0" as "--trace" and a
// stray argument.
type boolValue bool

func (b *boolValue) String() string { return strconv.FormatBool(bool(*b)) }

func (b *boolValue) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolValue(v)
	return err
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var trace boolValue
	workload := flag.String("workload", "", "workload to run (default: all in turn): fig3, loss-coverage, interleave, serve-mix")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "measurement time per workload")
	flag.Var(&trace, "trace", "1 for the traced run, which reports the per-layer metrics")
	jsonOut := flag.String("json", "", "append each full report as a JSON line to this file")
	workdir := flag.String("workdir", ".bench_build", "directory for the serve-mix cache and the traced run's spans")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ftbench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	names := bench.Workloads()
	if *workload != "" {
		names = []string{*workload}
	}
	status := 0
	for _, name := range names {
		rep, err := bench.Run(bench.Options{
			Workload: name, Seed: *seed, Seconds: *seconds, Trace: bool(trace),
			WorkDir: *workdir, Log: os.Stderr,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		bench.WriteText(os.Stdout, rep)
		if *jsonOut != "" {
			if err := bench.AppendJSONL(*jsonOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
				os.Exit(1)
			}
		}
		line, err := bench.ResultLine(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			status = 1
		}
	}
	os.Exit(status)
}

// compare prints the comparison table of two JSONL run sets.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ftbench compare a.jsonl b.jsonl")
		return 2
	}
	a, err := bench.ReadReports(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		return 1
	}
	b, err := bench.ReadReports(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		return 1
	}
	bench.WriteCompare(os.Stdout, bench.Compare(a, b))
	return 0
}
