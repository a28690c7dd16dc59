// Command mflowtrace runs a short scenario with per-packet tracing enabled
// and prints the journeys of the first segments of a flow — which softirq
// stage handled them, on which core, at what simulated time. It makes
// MFLOW's splitting visible: consecutive micro-flows fan out to different
// cores and re-converge at the merge point.
//
// Example:
//
//	mflowtrace -system mflow -proto tcp -segs 6
//	mflowtrace -system falcon-dev -proto udp -segs 4
//	mflowtrace -system mflow -proto tcp -export trace.json
//
// With -export the run also records per-core execution intervals and writes
// a Chrome trace-event JSON file — one track per core, one per flow — that
// loads directly in ui.perfetto.dev or chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mflow/internal/obs"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mflowtrace", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		system = fs.String("system", "mflow", "system under test")
		proto  = fs.String("proto", "tcp", "transport: tcp|udp")
		size   = fs.Int("size", 65536, "message size in bytes")
		segs   = fs.Int("segs", 4, "number of segments to print journeys for")
		batch  = fs.Int("batch", 0, "mflow micro-flow batch size")
		export = fs.String("export", "", "write a Perfetto/chrome://tracing-loadable trace-event JSON timeline (per-core busy tracks + per-flow packet tracks) to this file")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	sys, err := steering.ParseSystem(*system)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	p, err := skb.ParseProto(*proto)
	if err != nil {
		fmt.Fprintln(stderr, "-proto:", err)
		return 2
	}

	tr := trace.New()
	tr.OnlyFlow = 1
	// Trace enough segments to cover a couple of micro-flow boundaries.
	span := uint64(*segs)
	if *batch > 0 {
		span += uint64(*batch)
	} else {
		span += 256
	}
	tr.OnlySeqBelow = span

	sc := overlay.Scenario{
		System: sys, Proto: p, MsgSize: *size,
		Tracer: tr,
		MFlow:  overlay.MFlowConfig{BatchSize: *batch},
		Warmup: 1 * sim.Millisecond, Measure: 1 * sim.Millisecond,
	}
	var clog *obs.CoreLog
	if *export != "" {
		clog = &obs.CoreLog{}
		sc.CoreLog = clog
	}
	overlay.Run(sc)

	fmt.Fprintf(stdout, "traced %d events across stages %v\n\n", len(tr.Events()), tr.Stages())
	for s := 0; s < *segs; s++ {
		fmt.Fprint(stdout, tr.RenderJourney(1, uint64(s)))
	}
	// And one segment from the next micro-flow, to show the fan-out.
	if *batch != 1 {
		b := uint64(*batch)
		if b == 0 {
			b = 256
		}
		fmt.Fprintf(stdout, "\n(next micro-flow)\n")
		fmt.Fprint(stdout, tr.RenderJourney(1, b))
	}

	fmt.Fprintln(stdout, "\nper-core stage occupancy (traced packets):")
	occ := tr.CoreOccupancy()
	cores := make([]int, 0, len(occ))
	for c := range occ {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		fmt.Fprintf(stdout, "  core %d: %v\n", c, occ[c])
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		err = obs.ExportChromeTrace(f, tr.Events(), clog)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nexported %d core intervals + %d packet events to %s (open in ui.perfetto.dev or chrome://tracing)\n",
			len(clog.Intervals), len(tr.Events()), *export)
	}
	return 0
}
