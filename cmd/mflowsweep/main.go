// Command mflowsweep runs a parameter grid over MFLOW's two main knobs —
// micro-flow batch size and splitting-core count — and emits CSV suitable
// for plotting, one row per configuration with throughput, latency and
// ordering statistics.
//
// Examples:
//
//	mflowsweep -proto tcp > sweep.csv
//	mflowsweep -proto udp -batches 1,64,256 -cores 1,2,3,4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mflow/internal/harness"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// parsePositive parses a comma-separated list of positive integers; name is
// the flag it came from, for the error.
func parsePositive(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -%s: %v", name, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("bad -%s: %d is not positive", name, v)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its exit
// status: 0 on success, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mflowsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		proto    = fs.String("proto", "tcp", "transport: tcp|udp")
		size     = fs.Int("size", 65536, "message size in bytes")
		batches  = fs.String("batches", "1,16,64,256,1024", "comma-separated batch sizes")
		cores    = fs.String("cores", "1,2,3,4", "comma-separated splitting-core counts")
		kcores   = fs.Int("kernel-cores", 10, "kernel core pool")
		measure  = fs.Int("measure-ms", 12, "measured window (simulated ms)")
		seed     = fs.Uint64("seed", 42, "simulation seed")
		parallel = fs.Int("parallel", harness.DefaultWorkers(), "worker-pool width (1 = serial; output is identical either way)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mflowsweep:", err)
		return 2
	}

	p, err := skb.ParseProto(*proto)
	if err != nil {
		return fail(fmt.Errorf("-proto: %w", err))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"size", *size}, {"kernel-cores", *kcores}, {"measure-ms", *measure}, {"parallel", *parallel}} {
		if f.v <= 0 {
			return fail(fmt.Errorf("bad -%s: %d is not positive", f.name, f.v))
		}
	}
	bs, err := parsePositive("batches", *batches)
	if err != nil {
		return fail(err)
	}
	cs, err := parsePositive("cores", *cores)
	if err != nil {
		return fail(err)
	}
	// The grid fans out over the harness pool; results come back in
	// submission order, so the CSV rows are identical at any -parallel.
	type cell struct{ batch, cores int }
	var grid []cell
	for _, b := range bs {
		for _, c := range cs {
			grid = append(grid, cell{b, c})
		}
	}
	results := harness.Map(*parallel, grid, func(_ int, g cell) *overlay.Result {
		return overlay.Run(overlay.Scenario{
			System:      steering.MFlow,
			Proto:       p,
			MsgSize:     *size,
			KernelCores: *kcores,
			Seed:        *seed,
			Warmup:      3 * sim.Millisecond,
			Measure:     sim.Duration(*measure) * sim.Millisecond,
			MFlow:       overlay.MFlowConfig{BatchSize: g.batch, SplitCores: g.cores},
		})
	})

	fmt.Fprintln(stdout, "proto,msg_size,batch,split_cores,gbps,msg_per_sec,p50_us,p99_us,ooo_deliveries,merge_switches,gro_factor,drops")
	for i, res := range results {
		fmt.Fprintf(stdout, "%s,%d,%d,%d,%.3f,%.0f,%.1f,%.1f,%d,%d,%.1f,%d\n",
			p, *size, grid[i].batch, grid[i].cores,
			res.Gbps, res.MsgPerSec,
			float64(res.Latency.Median())/1000, float64(res.Latency.P99())/1000,
			res.OOOSKBs, res.ReassemblySwitches, res.GROFactor,
			res.DropsRing+res.DropsBacklog+res.DropsSock)
	}
	return 0
}
