// Command mflowbench regenerates the paper's evaluation: every measured
// table and figure (Figs. 4, 7, 8, 9, 10, 11, 12, 13) plus the design
// ablations, printed as aligned text tables (optionally CSV). Runs
// execute on a parallel deterministic harness: the figure's scenario
// matrix fans out over a worker pool, yet the output is byte-identical
// to a serial run with the same seed.
//
// Examples:
//
//	mflowbench                  # everything, default windows
//	mflowbench -fig 8           # just Fig. 8
//	mflowbench -fig ablations   # just the ablation studies
//	mflowbench -measure-ms 24   # longer (more stable) measurement windows
//	mflowbench -csv             # machine-readable output
//	mflowbench -parallel 8      # 8 pool workers (default GOMAXPROCS)
//	mflowbench -json out/       # also write out/BENCH_<fig>.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mflow/internal/bench"
	"mflow/internal/harness"
	"mflow/internal/prof"
	"mflow/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mflowbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	figs := make([]string, len(bench.Figures))
	for i, f := range bench.Figures {
		figs[i] = f.Name
	}
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: "+strings.Join(figs, "|"))
		measure  = fs.Int("measure-ms", 12, "measured window per run (simulated ms)")
		warmup   = fs.Int("warmup-ms", 3, "warmup per run (simulated ms)")
		seed     = fs.Uint64("seed", 42, "simulation seed")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel = fs.Int("parallel", harness.DefaultWorkers(), "worker-pool width (1 = serial; output is identical either way)")
		jsonDir  = fs.String("json", "", "directory to write BENCH_<fig>.json artifact into")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run phase to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile after the run phase to this file")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	if err := validateFlags(*parallel, *measure, *warmup); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	r := bench.NewRunner()
	r.Warmup = sim.Duration(*warmup) * sim.Millisecond
	r.Measure = sim.Duration(*measure) * sim.Millisecond
	r.Seed = *seed
	r.Parallel = *parallel

	start := time.Now()
	tables, err := r.Tables(*fig)
	// The profiles cover the scenario-running phase, which is where all the
	// simulation time and allocation go; rendering is not worth profiling
	// and must not dilute the data.
	stopProf()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Timing and scheduler telemetry go to stderr only: stdout and the
	// JSON artifact must be byte-identical across worker counts.
	fmt.Fprintf(stderr, "mflowbench: fig=%s workers=%d wall=%s\n", *fig, *parallel, time.Since(start).Round(time.Millisecond))
	if st, segs := r.SchedTelemetry(); st.Scheduled > 0 && segs > 0 {
		fmt.Fprintf(stderr,
			"mflowbench: sched events=%d coalesced=%d (%.1f%%) inlined=%d (%.1f%%) heap-ops=%d peak-heap=%d heap-ops/pkt=%.2f\n",
			st.Scheduled,
			st.Coalesced, 100*float64(st.Coalesced)/float64(st.Scheduled),
			st.Inlined, 100*float64(st.Inlined)/float64(st.Scheduled),
			st.HeapOps(), st.PeakHeap,
			float64(st.HeapOps())/float64(segs))
	}

	for _, t := range tables {
		if *csv {
			fmt.Fprintf(stdout, "# %s — %s\n%s\n", t.ID, t.Title, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.Render())
		}
	}

	if *jsonDir != "" {
		artifact := r.Artifact(*fig, tables)
		path := filepath.Join(*jsonDir, fmt.Sprintf("BENCH_%s.json", *fig))
		if err := writeArtifact(path, artifact); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stderr, "mflowbench: wrote %s (%d runs, %d app runs)\n", path, len(artifact.Runs), len(artifact.Apps))
	}
	return 0
}

// writeArtifact writes a as JSON to path, creating its directory.
func writeArtifact(path string, a *bench.Artifact) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateFlags rejects nonsense before the harness spins up: the worker
// pool must be at least one wide, and the simulated windows non-negative
// with a positive measured window (a zero-length measurement divides by
// zero in every rate).
func validateFlags(parallel, measureMs, warmupMs int) error {
	if parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", parallel)
	}
	if measureMs <= 0 {
		return fmt.Errorf("-measure-ms must be positive, got %d", measureMs)
	}
	if warmupMs < 0 {
		return fmt.Errorf("-warmup-ms must be non-negative, got %d", warmupMs)
	}
	return nil
}
