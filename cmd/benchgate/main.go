// Command benchgate compares a `go test -bench` run against a committed
// baseline and exits non-zero on regressions: time/op beyond the tolerance,
// or any allocs/op increase (the engine's allocation discipline is exact).
//
// Typical CI usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/sim/ > current.txt
//	benchgate -baseline bench_baseline.txt -current current.txt
//
// Refresh the baseline by committing a new redirect of the same command.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"mflow/internal/benchgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its exit
// status: 0 when every benchmark is within tolerance, 1 on regressions, 2 on
// bad flags or unreadable input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath  = fs.String("baseline", "bench_baseline.txt", "committed baseline (`go test -bench` output)")
		curPath   = fs.String("current", "-", "current run to check ('-' reads stdin)")
		tolerance = fs.Float64("tolerance", 0.20, "relative time/op increase tolerated")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tolerance < 0 || math.IsNaN(*tolerance) || math.IsInf(*tolerance, 0) {
		fmt.Fprintf(stderr, "benchgate: -tolerance must be a finite non-negative fraction, got %v\n", *tolerance)
		return 2
	}

	baseline, err := parseFile(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	current, err := parseFile(*curPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	if len(baseline) == 0 {
		fmt.Fprintf(stderr, "benchgate: no benchmarks in baseline %s\n", *basePath)
		return 2
	}

	benchgate.Report(stdout, baseline, current)
	regs := benchgate.Compare(baseline, current, *tolerance)
	if len(regs) > 0 {
		fmt.Fprintf(stderr, "benchgate: %d regression(s) vs %s:\n", len(regs), *basePath)
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: %d benchmark(s) within tolerance (time +%.0f%%, allocs exact)\n",
		len(baseline), *tolerance*100)
	return 0
}
func parseFile(path string) (map[string]benchgate.Result, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return benchgate.Parse(r)
}
