// Command mflowsim runs one packet-processing scenario on the simulated
// testbed and prints its measurements: throughput, latency distribution,
// per-core CPU breakdown and ordering statistics.
//
// Examples:
//
//	mflowsim -system mflow -proto tcp -size 65536
//	mflowsim -system vanilla -proto udp -size 65536 -cpu
//	mflowsim -system mflow -proto tcp -batch 16 -split 3
//	mflowsim -system mflow -flows 10 -kernel-cores 10 -app-cores 5
//	mflowsim -system mflow -proto tcp -metrics out.json
//	mflowsim -system mflow -proto tcp -flows 3 -hosts 3
//	mflowsim -system mflow -hosts 4 -placement incast -underlay 10,5,512
//
// With -metrics the run attaches an observability registry and writes the
// full metric snapshot for the measured window — per-stage latency and
// inter-stage queueing histograms, sampled queue depths (NIC ring, backlogs,
// sockets) and pipeline counters — as deterministic JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/metrics"
	"mflow/internal/obs"
	"mflow/internal/overlay"
	"mflow/internal/overload"
	"mflow/internal/prof"
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
	fs := flag.NewFlagSet("mflowsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		system  = fs.String("system", "mflow", "system under test: native|vanilla|rps|falcon-dev|falcon-func|mflow")
		proto   = fs.String("proto", "tcp", "transport: tcp|udp")
		size    = fs.Int("size", 65536, "message size in bytes")
		flows   = fs.Int("flows", 1, "concurrent flows")
		kcores  = fs.Int("kernel-cores", 0, "kernel (softirq) cores (default 6; 10 for multi-flow)")
		acores  = fs.Int("app-cores", 0, "application cores (default 1)")
		window  = fs.Int("window", 0, "TCP sender window in segments (default 2048)")
		batch   = fs.Int("batch", 0, "mflow micro-flow batch size (default 256)")
		split   = fs.Int("split", 0, "mflow splitting cores (default 2)")
		shared  = fs.Bool("shared-queue", false, "pin all overlay flows to one RSS queue (Docker outer-hash pathology)")
		seed    = fs.Uint64("seed", 42, "simulation seed")
		measure = fs.Int("measure-ms", 24, "measured window (simulated milliseconds)")
		warmup  = fs.Int("warmup-ms", 4, "warmup (simulated milliseconds)")
		cpu     = fs.Bool("cpu", false, "print the per-core CPU utilization breakdown")
		metOut  = fs.String("metrics", "", "attach the observability registry and write its measured-window snapshot (queue depths, per-stage latency, NIC/device counters) as JSON to this file")
		pcapOut = fs.String("pcap", "", "write wire-mode traffic to this pcap file (implies wire mode)")
		wire    = fs.Bool("wire", false, "wire mode: real bytes end to end with integrity checks")
		detect  = fs.Bool("autodetect", false, "split only detector-promoted elephant flows")
		modelTX = fs.Bool("modeltx", false, "model the sender-side transmit pipeline explicitly")

		hosts     = fs.Int("hosts", 1, "simulated hosts sharing one clock (>= 2 enables the multi-host fabric)")
		placement = fs.String("placement", "", "fabric flow placement: pair|incast (requires -hosts >= 2)")
		underlay  = fs.String("underlay", "", "fabric underlay as gbps,latency_us,queue_kb (e.g. 40,5,512; requires -hosts >= 2)")

		loss      = fs.Float64("loss", 0, "uniform wire-frame drop probability (enables fault injection)")
		burst     = fs.String("burst", "", "Gilbert-Elliott burst loss as pGoodBad,pBadGood,lossBad (e.g. 0.002,0.1,0.75)")
		dup       = fs.Float64("dup", 0, "wire-frame duplication probability")
		corrupt   = fs.Float64("corrupt", 0, "wire-frame corruption probability (detected by -wire checksums)")
		stall     = fs.Float64("stall", 0, "per-execution kernel-core stall probability (20us mean stalls)")
		faultseed = fs.Uint64("faultseed", 0, "extra seed for the fault injector's own PRNG")
		ovName    = fs.String("overload", "", "enable overload control with a named profile: "+overloadNames())

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile after the run to this file")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	if err := validateFlags(*size, *flows, *loss, *dup, *corrupt, *stall); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fcfg, err := fabricConfig(*hosts, *placement, *underlay)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
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

	var capture *os.File
	if *pcapOut != "" {
		f, err := os.Create(*pcapOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		capture = f
		defer f.Close()
		*wire = true
	}

	sc := overlay.Scenario{
		System:      sys,
		Proto:       p,
		MsgSize:     *size,
		Flows:       *flows,
		KernelCores: *kcores,
		AppCores:    *acores,
		Window:      *window,
		SharedQueue: *shared,
		Seed:        *seed,
		WireMode:    *wire,
		Warmup:      sim.Duration(*warmup) * sim.Millisecond,
		Measure:     sim.Duration(*measure) * sim.Millisecond,
		ModelTX:     *modelTX,
		Fabric:      fcfg,
		MFlow:       overlay.MFlowConfig{BatchSize: *batch, SplitCores: *split, AutoDetect: *detect},
	}
	if *flows > 1 && *kcores == 0 {
		sc.KernelCores = 10
		sc.AppCores = 5
	}
	if *loss > 0 || *burst != "" || *dup > 0 || *corrupt > 0 || *stall > 0 {
		plan := &fault.Plan{
			Seed: *faultseed,
			Wire: fault.Profile{Drop: *loss, Dup: *dup, Corrupt: *corrupt},
		}
		if *burst != "" {
			ge, err := parseBurst(*burst)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			plan.Wire.Burst = ge
		}
		if *stall > 0 {
			plan.StallProb = *stall
			plan.StallMean = 20 * sim.Microsecond
		}
		sc.Faults = plan
	}
	if *ovName != "" {
		cfg, ok := overload.Profiles()[*ovName]
		if !ok {
			fmt.Fprintf(stderr, "unknown -overload profile %q: want %s\n", *ovName, overloadNames())
			return 2
		}
		sc.Overload = cfg
	}

	if capture != nil {
		sc.Capture = capture
	}
	if *metOut != "" {
		sc.Obs = obs.New()
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	res := overlay.Run(sc)
	stopProf()
	fmt.Fprintf(stdout, "scenario   %s\n", res.Scenario.Name())
	fmt.Fprintf(stdout, "throughput %.2f Gbps (%.0f msg/s, %d segments)\n", res.Gbps, res.MsgPerSec, res.DeliveredSegments)
	fmt.Fprintf(stdout, "latency    p50=%v  mean=%v  p99=%v\n",
		sim.Duration(res.Latency.Median()), sim.Duration(int64(res.Latency.Mean())), sim.Duration(res.Latency.P99()))
	fmt.Fprintf(stdout, "gro        factor %.1f\n", res.GROFactor)
	fmt.Fprintf(stdout, "ordering   merge-point OOO: %d skbs / %d segments; delivered OOO: %d; tcp ofo: %d; merges: %d\n",
		res.OOOSKBs, res.OOOSegments, res.DeliveredOutOfOrder, res.TCPOFOSegments, res.ReassemblySwitches)
	fmt.Fprintf(stdout, "drops      ring=%d socket=%d backlog=%d\n", res.DropsRing, res.DropsSock, res.DropsBacklog)
	fmt.Fprintf(stdout, "kernel cpu total=%.0f%% stddev=%.1fpp\n", res.KernelCPUTotal, res.KernelCPUStddev)
	if sc.Faults.Enabled() {
		fmt.Fprintf(stdout, "faults     injected=%d (drops=%d) retransmits=%d (rto=%d fast=%d) holes=%d stale=%d ofo-pruned=%d dup-segs=%d reasm-errs=%d\n",
			res.FaultsInjected, res.FaultDrops, res.Retransmits, res.RTOTimeouts,
			res.FastRetransmits, res.HolesReleased, res.StaleReleased, res.OFOPruned,
			res.TCPDupSegments, res.ReassemblyErrors)
	}
	if sc.Overload.Enabled() {
		fmt.Fprintf(stdout, "overload   offered=%d accepted=%d adm-drops=%d aqm-drops=%d gated=%d poll=%d/%d resteers=%d collapse/restore=%d/%d mem-peak=%dKB sojourn-p99=%v\n",
			res.OfferedFrames, res.AcceptedFrames, res.DropsAdmission, res.DropsAQM,
			res.OverloadGated, res.PollModeEntered, res.PollModeExited,
			res.WatchdogResteers, res.DegradeCollapses, res.DegradeRestores,
			res.MemPeakBytes/1024, sim.Duration(res.AQMSojournP99))
	}
	if sc.Fabric.Enabled() {
		fmt.Fprintf(stdout, "fabric     hosts=%d underlay sent=%d delivered=%d drops=%d copies=%d in-flight=%d/%d fdb floods=%d learned=%d aged=%d\n",
			sc.Fabric.Hosts, res.UnderlaySent, res.UnderlayDelivered, res.UnderlayDrops,
			res.UnderlayFloodCopies, res.UnderlayInFlightStart, res.UnderlayInFlightEnd,
			res.FDBFloods, res.FDBLearned, res.FDBAged)
	}
	if *wire {
		fmt.Fprintf(stdout, "wire       integrity errors: %d\n", res.WireErrors)
	}
	if *pcapOut != "" {
		fmt.Fprintf(stdout, "pcap       written to %s\n", *pcapOut)
	}
	if *cpu {
		fmt.Fprint(stdout, metrics.FormatCPU(res.CPU))
	}
	if *metOut != "" {
		f, err := os.Create(*metOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := res.Obs.WriteJSON(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stdout, "queues     %s\n", queueSummary(res.Obs))
		fmt.Fprintf(stdout, "metrics    written to %s (%d series)\n", *metOut, len(res.Obs))
	}
	return 0
}

// validateFlags rejects nonsense before any simulation state is built:
// sizes and flow counts must be positive, probabilities finite and in [0,1].
func validateFlags(size, flows int, loss, dup, corrupt, stall float64) error {
	if size <= 0 {
		return fmt.Errorf("-size must be positive, got %d", size)
	}
	if flows <= 0 {
		return fmt.Errorf("-flows must be positive, got %d", flows)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"loss", loss}, {"dup", dup}, {"corrupt", corrupt}, {"stall", stall}} {
		if err := validateProb(p.name, p.v); err != nil {
			return err
		}
	}
	return nil
}

// validateProb checks that a probability-valued flag is finite and in [0,1].
func validateProb(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return fmt.Errorf("-%s must be a probability in [0,1], got %v", name, v)
	}
	return nil
}

// fabricConfig builds the multi-host fabric config from the -hosts,
// -placement and -underlay flags. One host (the default) returns nil —
// the single-host path untouched by the fabric — and then rejects the
// fabric-only flags, which would otherwise be ignored silently.
func fabricConfig(hosts int, placement, underlay string) (*fabric.Config, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("-hosts must be at least 1, got %d", hosts)
	}
	if hosts == 1 {
		if placement != "" {
			return nil, fmt.Errorf("-placement requires -hosts >= 2")
		}
		if underlay != "" {
			return nil, fmt.Errorf("-underlay requires -hosts >= 2")
		}
		return nil, nil
	}
	if hosts > 64 {
		return nil, fmt.Errorf("-hosts must be at most 64, got %d", hosts)
	}
	cfg := &fabric.Config{Hosts: hosts}
	switch placement {
	case "", fabric.PlacePair:
	case fabric.PlaceIncast:
		cfg.Placement = fabric.PlaceIncast
	default:
		return nil, fmt.Errorf("unknown -placement %q: want pair|incast", placement)
	}
	if underlay != "" {
		parts := strings.Split(underlay, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -underlay %q: want gbps,latency_us,queue_kb", underlay)
		}
		vals := make([]float64, 3)
		names := []string{"underlay gbps", "underlay latency_us", "underlay queue_kb"}
		for i, part := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("bad -underlay %q: %s is not a number", underlay, part)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("bad -underlay %q: %s must be positive and finite", underlay, names[i])
			}
			vals[i] = v
		}
		cfg.LinkGbps = vals[0]
		cfg.LinkLatency = sim.Duration(vals[1] * float64(sim.Microsecond))
		cfg.LinkQueueBytes = int(vals[2]) << 10
	}
	return cfg, nil
}

// parseBurst parses the -burst argument: exactly three comma-separated
// probabilities pGoodBad,pBadGood,lossBad, each finite and in [0,1].
func parseBurst(s string) (*fault.GilbertElliott, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -burst %q: want pGoodBad,pBadGood,lossBad", s)
	}
	vals := make([]float64, 3)
	names := []string{"burst pGoodBad", "burst pBadGood", "burst lossBad"}
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -burst %q: %s is not a number", s, part)
		}
		if err := validateProb(names[i], v); err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return &fault.GilbertElliott{PGoodBad: vals[0], PBadGood: vals[1], LossBad: vals[2]}, nil
}

// overloadNames lists the available -overload profiles, sorted for a stable
// usage string.
func overloadNames() string {
	var names []string
	for name := range overload.Profiles() {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// queueSummary picks the NIC ring and the deepest backlog out of the
// sampled queue-depth series for the one-line report.
func queueSummary(snap obs.Snapshot) string {
	var parts []string
	var worst string
	var worstP99 int64 = -1
	for _, name := range snap.Names() {
		if !strings.HasPrefix(name, "queue_depth{") {
			continue
		}
		m := snap[name]
		q := strings.TrimSuffix(strings.TrimPrefix(name, "queue_depth{queue="), "}")
		switch {
		case strings.HasPrefix(q, "nic_ring"):
			if m.Max > 0 {
				parts = append(parts, fmt.Sprintf("%s p99=%d max=%d", q, m.P99, m.Max))
			}
		case strings.HasPrefix(q, "backlog:"):
			if m.P99 > worstP99 {
				worstP99, worst = m.P99, fmt.Sprintf("%s p99=%d max=%d", q, m.P99, m.Max)
			}
		}
	}
	if worst != "" {
		parts = append(parts, worst)
	}
	if len(parts) == 0 {
		return "(all sampled queues empty)"
	}
	return strings.Join(parts, "; ")
}
