// Command mflowinspect answers "where did the latency go": it runs scenarios
// with the causal critical-path profiler attached and renders per-packet
// latency attribution — breakdown tables per system × protocol, the slowest
// packets' full timelines, anomaly flight-recorder summaries — without
// perturbing the run (probed and unprobed runs measure identically).
//
// Examples:
//
//	mflowinspect                          # MFLOW TCP 64KB breakdown + exemplars
//	mflowinspect -system rps -proto udp   # another system/protocol
//	mflowinspect -chaos burst             # under fault injection
//	mflowinspect -perfetto flight.json    # export anomaly snapshots (Perfetto)
//	mflowinspect -fig 7                   # MFLOW reorder-wait vs batch size, vs RPS
//	mflowinspect -compare BENCH_all.json  # regenerate probed + fail on any drift
//	mflowinspect -compare OLD.json -against NEW.json   # diff two artifacts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mflow/internal/bench"
	"mflow/internal/causal"
	"mflow/internal/fault"
	"mflow/internal/harness"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mflowinspect", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		system    = fs.String("system", "mflow", "steering system: native|vanilla|rps|falcon-dev|falcon-func|mflow|slim")
		proto     = fs.String("proto", "tcp", "protocol: tcp|udp")
		size      = fs.Int("size", 65536, "message size (bytes)")
		flows     = fs.Int("flows", 1, "concurrent flows")
		batch     = fs.Int("batch", 0, "MFLOW micro-flow batch size (0 = default)")
		chaos     = fs.String("chaos", "", "fault profile: random|burst (default lossless)")
		measure   = fs.Int("measure-ms", 12, "measured window (simulated ms)")
		warmup    = fs.Int("warmup-ms", 3, "warmup (simulated ms)")
		seed      = fs.Uint64("seed", 42, "simulation seed")
		exemplars = fs.Int("exemplars", causal.DefaultExemplarsPerFlow, "slowest-packet timelines kept per flow")
		perfetto  = fs.String("perfetto", "", "write flight-recorder snapshots as a Perfetto trace to this file")
		fig       = fs.String("fig", "", "figure-style causal comparison (7: reorder-wait vs batch size, MFLOW vs RPS)")
		compare   = fs.String("compare", "", "baseline BENCH_*.json: regenerate at its seed/windows and fail on any header, record field or table cell that differs")
		against   = fs.String("against", "", "with -compare: diff against this artifact instead of regenerating")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	switch {
	case *compare != "":
		return runCompare(stdout, stderr, *compare, *against)
	case *fig == "7":
		return runFig7(stdout, stderr, *seed, *warmup, *measure)
	case *fig != "":
		fmt.Fprintf(stderr, "mflowinspect: unknown -fig %q (supported: 7)\n", *fig)
		return 2
	}

	sys, err := steering.ParseSystem(*system)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pr, err := skb.ParseProto(*proto)
	if err != nil {
		fmt.Fprintln(stderr, "mflowinspect: -proto:", err)
		return 2
	}
	sc := overlay.Scenario{
		System: sys, Proto: pr, MsgSize: *size, Flows: *flows,
		MFlow:  overlay.MFlowConfig{BatchSize: *batch},
		Seed:   *seed,
		Warmup: sim.Duration(*warmup) * sim.Millisecond, Measure: sim.Duration(*measure) * sim.Millisecond,
	}
	if *chaos != "" {
		plan, ok := fault.ChaosProfiles()[*chaos]
		if !ok {
			fmt.Fprintf(stderr, "mflowinspect: unknown -chaos %q (random|burst)\n", *chaos)
			return 2
		}
		sc.Faults = plan
	}
	return runLive(stdout, stderr, sc, *exemplars, *perfetto)
}

// runLive executes one probed scenario and prints its causal attribution.
func runLive(stdout, stderr io.Writer, sc overlay.Scenario, exemplars int, perfetto string) int {
	p := &causal.Profiler{ExemplarsPerFlow: exemplars}
	fr := causal.NewFlightRecorder()
	res := overlay.RunProbed(sc, overlay.Probes{Causal: p, Flight: fr})

	fmt.Fprintln(stdout, res.String())
	fmt.Fprintf(stdout, "packets: %d delivered, %d GRO-absorbed, %d dropped\n\n",
		p.DeliveredPkts, p.AbsorbedPkts, p.DroppedPkts)
	fmt.Fprintln(stdout, bench.BreakdownTable(res).Render())

	if ex := p.Exemplars(); len(ex) > 0 {
		fmt.Fprintf(stdout, "slowest packets (%d per flow):\n", exemplars)
		for _, r := range ex {
			fmt.Fprint(stdout, causal.RenderTimeline(r))
		}
		fmt.Fprintln(stdout)
	}
	if kinds := fr.TriggerKinds(); len(kinds) > 0 {
		fmt.Fprintln(stdout, "flight-recorder triggers:")
		for _, k := range kinds {
			fmt.Fprintf(stdout, "  %-14s %d (snapshots kept: see -perfetto)\n", k, fr.Triggers[k])
		}
	} else {
		fmt.Fprintln(stdout, "flight-recorder triggers: none")
	}
	if perfetto != "" {
		f, err := os.Create(perfetto)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := fr.Export(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stderr, "mflowinspect: wrote %s (%d snapshots)\n", perfetto, len(fr.Snapshots))
	}
	if v := p.Violations(); v > 0 {
		fmt.Fprintf(stderr, "mflowinspect: %d attribution violation(s); first: %s\n", v, p.FirstViolation())
		return 1
	}
	return 0
}

// fig7Batches mirrors the paper's Fig. 7 sweep.
var fig7Batches = []int{1, 4, 16, 64, 256, 1024, 4096}

// runFig7 renders the causal view of the paper's Fig. 7: how much of MFLOW's
// latency is reassembly reorder-wait at each micro-flow batch size, against
// the RPS baseline — whose waits are steering handoffs, not reassembly.
func runFig7(stdout, stderr io.Writer, seed uint64, warmupMs, measureMs int) int {
	warmup := sim.Duration(warmupMs) * sim.Millisecond
	measure := sim.Duration(measureMs) * sim.Millisecond
	// probe runs sc with the profiler attached; a nil profiler means the
	// run broke conservation (already reported).
	probe := func(sc overlay.Scenario) (*overlay.Result, *causal.Profiler) {
		sc.Seed, sc.Warmup, sc.Measure = seed, warmup, measure
		p := causal.NewProfiler()
		res := overlay.RunProbed(sc, overlay.Probes{Causal: p})
		if v := p.Violations(); v > 0 {
			fmt.Fprintf(stderr, "mflowinspect: %d violation(s): %s\n", v, p.FirstViolation())
			return res, nil
		}
		return res, p
	}
	sumKind := func(res *overlay.Result, kind causal.SegKind) (total sim.Duration) {
		for _, st := range res.Breakdown {
			if st.Kind == kind {
				total += st.Total
			}
		}
		return total
	}
	e2e := func(p *causal.Profiler) sim.Duration {
		if p.DeliveredPkts == 0 {
			return 0
		}
		return p.SumE2E / sim.Duration(p.DeliveredPkts)
	}

	t := &bench.Table{
		ID:    "fig7-causal",
		Title: "Fig. 7, causally: MFLOW reorder-wait vs batch size (TCP 64KB), RPS for contrast",
		Columns: []string{"system", "batch", "reorder-wait us",
			"handoff us", "mean e2e us", "Gbps"},
	}
	us := func(d sim.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1000) }
	var mflow256, rps *overlay.Result
	for _, b := range fig7Batches {
		res, p := probe(overlay.Scenario{
			System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
			MFlow: overlay.MFlowConfig{BatchSize: b},
		})
		if p == nil {
			return 1
		}
		if b == 256 {
			mflow256 = res
		}
		t.Rows = append(t.Rows, []string{
			"mflow", fmt.Sprintf("%d", b),
			us(sumKind(res, causal.SegReorderWait)),
			us(sumKind(res, causal.SegHandoff)),
			us(e2e(p)), fmt.Sprintf("%.2f", res.Gbps),
		})
	}
	{
		res, p := probe(overlay.Scenario{System: steering.RPS, Proto: skb.TCP, MsgSize: 65536})
		if p == nil {
			return 1
		}
		rps = res
		t.Rows = append(t.Rows, []string{
			"rps", "-",
			us(sumKind(res, causal.SegReorderWait)),
			us(sumKind(res, causal.SegHandoff)),
			us(e2e(p)), fmt.Sprintf("%.2f", res.Gbps),
		})
	}
	t.Notes = append(t.Notes,
		"MFLOW's wait is batch reassembly (reorder-wait at the merge point); RPS packets",
		"never wait on reordering — their cross-core cost is the steer + IPI handoff.",
		fmt.Sprintf("mflow handoff mechanism: %s; rps: %s",
			steering.HandoffLabel(steering.MFlow), steering.HandoffLabel(steering.RPS)))
	fmt.Fprintln(stdout, t.Render())

	fmt.Fprintln(stdout, bench.BreakdownTable(mflow256).Render())
	fmt.Fprintln(stdout, bench.BreakdownTable(rps).Render())
	return 0
}

// runCompare loads a baseline artifact and either regenerates it at the same
// figure/seed/windows (probed — proving probes don't drift results) or diffs
// it against a second artifact. Any difference bench.Diff reports fails.
func runCompare(stdout, stderr io.Writer, basePath, againstPath string) int {
	base, err := bench.LoadArtifact(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var cur *bench.Artifact
	if againstPath != "" {
		if cur, err = bench.LoadArtifact(againstPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		r := bench.NewRunner()
		r.Seed = base.Seed
		r.Warmup = sim.Duration(base.WarmupMs * float64(sim.Millisecond))
		r.Measure = sim.Duration(base.MeasureMs * float64(sim.Millisecond))
		r.Parallel = harness.DefaultWorkers()
		r.Causal = true
		tables, err := r.Tables(base.Figure)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		cur = r.Artifact(base.Figure, tables)
	}
	if drift := bench.Diff(base, cur); len(drift) > 0 {
		fmt.Fprintf(stderr, "mflowinspect: %d drift line(s) vs %s:\n", len(drift), basePath)
		for _, d := range drift {
			fmt.Fprintf(stderr, "  %s\n", d)
		}
		return 1
	}
	fmt.Fprintf(stdout, "mflowinspect: no drift vs %s (%d tables, %d runs, %d app runs)\n",
		basePath, len(base.Tables), len(base.Runs), len(base.Apps))
	return 0
}
