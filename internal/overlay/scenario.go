package overlay

import (
	"fmt"
	"io"
	"strings"

	"mflow/internal/causal"
	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/metrics"
	"mflow/internal/obs"
	"mflow/internal/overload"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/trace"
)

// MFlowConfig selects MFLOW's splitting topology for a scenario.
type MFlowConfig struct {
	// BatchSize is the micro-flow batch size in segments (default 256).
	BatchSize int
	// SplitCores is the number of parallel splitting cores (default 2).
	SplitCores int
	// FullPath enables IRQ-splitting full-path scaling: dispatch raw
	// driver requests before skb allocation and parallelize the whole
	// pipeline, merging before the TCP layer (the paper's TCP
	// configuration, Fig. 5 bottom / Fig. 8b left).
	FullPath bool
	// PipelinePairs further pipelines each parallel branch across two
	// cores — skb allocation on one, the remaining devices on another —
	// the exact Fig. 8b TCP layout. Only meaningful with FullPath.
	PipelinePairs bool
	// LateMerge merges micro-flows at the socket instead of right after
	// the heavy device (the paper's UDP configuration, and the default).
	LateMerge bool
	// EarlyMerge (ablation) merges right after the heavy VxLAN device
	// and runs the rest of the path on one core (overrides LateMerge).
	EarlyMerge bool
	// FlowSplitOnly is an ablation: use only the flow-splitting function
	// (post-skb, at netif_rx) even for TCP, without IRQ splitting — skb
	// allocation stays serialized on the first core.
	FlowSplitOnly bool
	// PerPacketReorder is an ablation: skip the batch reassembler and
	// let the kernel's per-packet out-of-order queue restore order.
	PerPacketReorder bool
	// NoReassembly is an ablation for UDP: deliver micro-flows as they
	// complete with no order restoration at all.
	NoReassembly bool
	// AutoDetect splits only flows the elephant detector promotes
	// (per-flow EWMA rate over ElephantBps); mice take the single-core
	// path through the same reassembler, so reclassification at
	// micro-flow boundaries never reorders packets. The paper splits
	// "any identified (elephant) flow" — this is the identification.
	AutoDetect bool
	// ElephantBps is the promotion threshold (default 1 Gbps).
	ElephantBps float64
}

// withDefaults normalizes an MFlowConfig for the given protocol: the
// paper's defaults are batch 256, two splitting cores, full-path scaling
// for TCP and single-device scaling with late merge for UDP (§V).
func (m MFlowConfig) withDefaults(proto skb.Proto) MFlowConfig {
	if m.BatchSize <= 0 {
		m.BatchSize = 256
	}
	if m.SplitCores <= 0 {
		m.SplitCores = 2
	}
	if proto == skb.TCP {
		if m.FlowSplitOnly {
			m.FullPath = false
			m.PipelinePairs = false
		} else {
			// TCP defaults to the paper's full-path scaling with
			// pipelined branch pairs (Fig. 8b) unless a specific
			// ablation topology was requested.
			if !m.FullPath && !m.PipelinePairs {
				m.FullPath = true
				m.PipelinePairs = true
			}
			if m.PipelinePairs {
				m.FullPath = true
			}
		}
		m.LateMerge = false
	} else {
		m.FullPath = false
		m.PipelinePairs = false
		if m.EarlyMerge {
			m.LateMerge = false
		} else if !m.PerPacketReorder && !m.NoReassembly {
			m.LateMerge = true
		}
	}
	return m
}

// Scenario describes one experiment run.
type Scenario struct {
	// System selects the packet-steering configuration under test.
	System steering.System
	// Proto and MsgSize describe the sockperf-like workload.
	Proto   skb.Proto
	MsgSize int
	// Flows is the number of concurrent flows (default 1).
	Flows int
	// UDPClients is the number of client machines stressing each UDP
	// flow (the paper uses three; default 3 for UDP).
	UDPClients int
	// Window is the TCP sender's outstanding-segment limit (default 2048).
	Window int
	// KernelCores / AppCores size the receiving host's core pools
	// (defaults 6 and 1; the multi-flow experiments use 10 and 5).
	KernelCores int
	AppCores    int
	// MFlow configures MFLOW when System == steering.MFlow.
	MFlow MFlowConfig
	// Costs overrides the calibrated cost table (nil = DefaultCosts).
	Costs *CostModel
	// SharedQueue pins every overlay flow's first softirq to the same
	// core, modeling the default Docker/VxLAN pathology where the NIC
	// hashes only outer headers (one host pair ⇒ one RSS queue) — the
	// regime the application-level benchmarks run in. Ignored for the
	// native system, whose flows carry full RSS entropy.
	SharedQueue bool
	// Tracer, when set, records per-packet journeys through the pipeline
	// (subject to the tracer's own filters and cap).
	Tracer *trace.Tracer
	// Obs, when set, attaches the unified observability layer: per-stage
	// latency and inter-stage gap histograms for every packet, exact
	// time-weighted occupancy of the NIC rings / backlogs / socket queues,
	// and NIC/device counters. Nil disables it with zero hot-path cost.
	Obs *obs.Registry
	// CoreLog, when set, records every per-core execution interval for
	// Perfetto/Chrome trace export (obs.ExportChromeTrace).
	CoreLog *obs.CoreLog
	// Capture, when set together with WireMode, streams every frame
	// arriving at a receiving NIC (every host's, on a fabric run) into one
	// pcap capture written to this writer.
	Capture io.Writer
	// CopyThreads parallelizes the user-space delivery copy across this
	// many application cores (the paper's stated future work for the
	// residual core-0 bottleneck). Default 1 — the paper's system.
	CopyThreads int
	// WireMode attaches real wire bytes to every segment: senders build
	// genuine inner frames and VxLAN encapsulation; the tunnel device
	// decapsulates actual bytes; the socket checks frames parse and carry
	// the accounted payload length. Slower; for end-to-end validation.
	WireMode bool
	// ModelTX replaces the aggregate client-cost model with an explicit
	// sender-side transmit pipeline (socket send path, GSO, container
	// egress chain, qdisc, NIC TX, wire serialization) — see txpath.
	ModelTX bool
	// NoTraffic builds the receive topology without the built-in
	// sockperf-like senders; application-level workloads (web serving,
	// data caching) drive the stack through a Stack instead.
	NoTraffic bool
	// Faults, when non-nil and enabled, injects deterministic faults
	// (lossy/bursty/corrupting wire, ring/backlog/socket admission drops,
	// kernel-core stalls) and arms the recovery machinery: the TCP sender
	// retransmits (adaptive RTO + fast retransmit), the reassembler
	// tolerates gaps and releases holes on a timer, and the TCP
	// out-of-order queue is bounded. A nil or all-zero plan wires nothing,
	// leaving the run bit-for-bit identical to a fault-free one.
	Faults *fault.Plan
	// Overload, when non-nil and enabled, wires the deterministic
	// overload-control subsystem (internal/overload): global skb memory
	// accounting at NIC admission, CoDel-style AQM on backlog and
	// splitting queues, receive-livelock mitigation (interrupt-per-frame
	// with polling-mode masking), reassembler graceful degradation, and
	// the stall watchdog that re-steers micro-flows off stalled cores.
	// A nil or zero config wires nothing, leaving the run bit-for-bit
	// identical to one without the subsystem (Key unchanged).
	Overload *overload.Config
	// Fabric, when non-nil with Hosts >= 2, runs the scenario on a
	// multi-host fabric: N simulated hosts share this run's DES clock,
	// each with its own NIC/cores/stack, and flows are placed across
	// hosts — a TX host's VxLAN encap output crosses the underlay wire
	// model (per-link propagation latency, bandwidth serialization,
	// bounded tail-drop queues) into the RX host's NIC ring. A nil or
	// zero config builds the classic single host, bit-for-bit identical
	// to a run minted before the fabric existed (Key unchanged).
	Fabric *fabric.Config
	// Seed makes the run deterministic.
	Seed uint64
	// Warmup precedes measurement; Measure is the measured window.
	Warmup  sim.Duration
	Measure sim.Duration
}

// withDefaults fills unset scenario fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.MsgSize <= 0 {
		sc.MsgSize = 65536
	}
	if sc.Flows <= 0 {
		sc.Flows = 1
	}
	if sc.UDPClients <= 0 {
		if sc.Proto == skb.UDP {
			sc.UDPClients = 3
		} else {
			sc.UDPClients = 1
		}
	}
	if sc.Window <= 0 {
		sc.Window = 2048
	}
	if sc.KernelCores <= 0 {
		sc.KernelCores = 6
	}
	if sc.AppCores <= 0 {
		sc.AppCores = 1
	}
	if sc.Costs == nil {
		sc.Costs = DefaultCosts()
	}
	if sc.Seed == 0 {
		sc.Seed = 42
	}
	if sc.Warmup <= 0 {
		sc.Warmup = 4 * sim.Millisecond
	}
	if sc.Measure <= 0 {
		sc.Measure = 24 * sim.Millisecond
	}
	sc.MFlow = sc.MFlow.withDefaults(sc.Proto)
	return sc
}

// Key renders a stable identity for the scenario's measured
// configuration: every field that can change a run's outcome, by value
// (Costs and Faults dereferenced, so two scenarios built from separate
// but equal cost tables share a key across processes), with the pure
// observability attachments — Obs, Tracer, CoreLog, Capture — excluded:
// attaching a fresh registry must not change a scenario's identity.
// Two scenarios with equal keys produce identical Results; the bench
// cache and the BENCH_*.json baseline comparison both key on it.
func (sc Scenario) Key() string {
	costs := ""
	if sc.Costs != nil {
		costs = fmt.Sprintf("%+v", *sc.Costs)
	}
	faults := ""
	if sc.Faults != nil {
		f := *sc.Faults
		if f.Wire.Burst != nil {
			burst := *f.Wire.Burst
			f.Wire.Burst = nil
			faults = fmt.Sprintf("%+v burst=%+v", f, burst)
		} else {
			faults = fmt.Sprintf("%+v", f)
		}
	}
	ov := ""
	if sc.Overload.Enabled() {
		ov = fmt.Sprintf("%+v", *sc.Overload)
	}
	fab := ""
	if sc.Fabric.Enabled() {
		fab = fmt.Sprintf("%+v", *sc.Fabric)
	}
	sc.Costs = nil
	sc.Faults = nil
	sc.Obs = nil
	sc.Tracer = nil
	sc.CoreLog = nil
	sc.Capture = nil
	sc.Overload = nil
	sc.Fabric = nil
	key := fmt.Sprintf("%+v|costs={%s}|faults={%s}", sc, costs, faults)
	// Strip the nil Overload and Fabric fields from the rendering so every
	// key minted before those subsystems existed stays byte-identical;
	// enabled configs append their own block (by value, like costs and
	// faults).
	key = strings.Replace(key, " Overload:<nil>", "", 1)
	key = strings.Replace(key, " Fabric:<nil>", "", 1)
	if ov != "" {
		key += fmt.Sprintf("|overload={%s}", ov)
	}
	if fab != "" {
		key += fmt.Sprintf("|fabric={%s}", fab)
	}
	return key
}

// Name renders a compact scenario identifier.
func (sc Scenario) Name() string {
	return fmt.Sprintf("%s/%s/%s/flows=%d", sc.System, sc.Proto, sizeLabel(sc.MsgSize), sc.Flows)
}

func sizeLabel(n int) string {
	switch {
	case n >= 1024 && n%1024 == 0:
		return fmt.Sprintf("%dKB", n/1024)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Probes carries a run's optional causal-attribution instrumentation
// (RunProbed). It is deliberately not part of Scenario: a scenario's
// identity (Key) and measured results must not depend on whether anyone was
// watching, so probes ride alongside the scenario rather than inside it.
type Probes struct {
	// Causal, when set, receives every packet's critical-path attribution:
	// per-(kind, stage) latency breakdowns, tail exemplars, conservation
	// checking.
	Causal *causal.Profiler
	// Flight, when set, keeps per-core rings of recent executions and
	// snapshots them deterministically on anomaly triggers (drops, RTOs,
	// reassembly gap-timeouts, wire corruption).
	Flight *causal.FlightRecorder
}

// Result is the measured outcome of one scenario run.
type Result struct {
	Scenario Scenario

	// Gbps is delivered application goodput over the measured window;
	// MsgPerSec the message completion rate.
	Gbps      float64
	MsgPerSec float64
	// Latency is the per-message delivery latency distribution (ns).
	Latency *metrics.Histogram

	// CPU is the per-core utilization over the measured window, with
	// per-softirq breakdown; KernelCPUStddev is the stddev (in
	// percentage points) of utilization across kernel cores (Fig. 12's
	// balance metric); KernelCPUTotal sums kernel-core utilization.
	CPU             []metrics.CPUSample
	KernelCPUStddev float64
	KernelCPUTotal  float64

	// Counters are the measured-window deltas of every monotonic counter.
	Counters

	// WireErrors counts wire-mode integrity failures (decap errors plus
	// socket payload-verification failures) over the whole run, warmup
	// included; zero in a correct run without fault injection (corruption
	// faults surface here).
	WireErrors uint64
	// ReassemblyErr keeps the first contiguity violation the reassembler
	// recorded (see Counters.ReassemblyErrors).
	ReassemblyErr error

	// Sched is the run's scheduler self-accounting (whole run, warmup
	// included): how much heap traffic the lanes and the inline slot
	// saved. Telemetry only — never fingerprinted or serialized into
	// benchmark artifacts.
	Sched sim.SchedStats
	// GROFactor is the achieved merge factor.
	GROFactor float64

	// WatchdogRecoveryMaxNs is the longest observed stall
	// detection→recovery interval in sim-ns; MemPeakBytes the skb memory
	// account's high-water mark; AQMSojournP99 the p99 queue sojourn (ns)
	// the AQM observed over the measured window. All zero unless
	// Scenario.Overload is enabled.
	WatchdogRecoveryMaxNs int64
	MemPeakBytes          int
	AQMSojournP99         int64

	// UnderlayInFlightStart/End are the frames inside the underlay at the
	// measurement window's boundaries (absolute gauges, not diffs).
	UnderlayInFlightStart int
	UnderlayInFlightEnd   int
	// FDBFloods / FDBLearned / FDBAged count cross-host bridge FDB
	// activity over the whole run (totals, not window deltas — the
	// flood-then-learn transient plays out during warmup): frames flooded
	// for an unknown (or aged) destination, new entries learned, entries
	// expired by FDBMaxAge. All zero unless Scenario.Fabric is enabled.
	FDBFloods  uint64
	FDBLearned uint64
	FDBAged    uint64

	// Breakdown is the measured-window causal latency decomposition,
	// aggregated per (segment kind, stage) across delivered packets. Nil
	// unless the run was probed (RunProbed with a causal.Profiler).
	Breakdown []causal.KindStat

	// Obs is the measured-window view of the scenario's registry (counter
	// values and histogram counts diffed over the window; gauges and
	// histogram quantiles cumulative). Nil unless Scenario.Obs was set.
	Obs obs.Snapshot
}

// Counters are a run's window-delta counters: monotonic totals that
// host.counters reads at both window boundaries and the Result reports
// as their difference (summed across hosts on a fabric). Adding one is a
// field here plus its reader line in host.counters. An `obs:"name[,group]"`
// tag also publishes the running total in the scenario registry under
// that name (host-prefixed on a fabric): group "fault" registers only on
// hosts with a fault injector, "overload" only on hosts with overload
// control, and "underlay" once per fabric run, unprefixed.
type Counters struct {
	// DeliveredBytes / DeliveredSegments over the measured window.
	DeliveredBytes    uint64
	DeliveredSegments uint64 `obs:"socket_delivered_segs"`

	// OOOSegments / OOOSKBs count out-of-order arrivals at MFLOW's merge
	// points (in wire segments and in delivery units — post-GRO skbs —
	// respectively; Fig. 7 reports the latter, the number of deliveries
	// the kernel would otherwise have had to reorder).
	// TCPOFOSegments counts skbs parked in the kernel TCP out-of-order
	// queue; ReassemblySwitches counts micro-flow rotations.
	OOOSegments        uint64
	OOOSKBs            uint64
	TCPOFOSegments     uint64
	ReassemblySwitches uint64
	// DeliveredOutOfOrder counts datagrams/segments reaching the
	// application out of order after whatever order restoration the
	// topology does (near-zero for MFLOW's UDP reassembler). For TCP it
	// is measured at the socket and must stay zero — even under fault
	// injection, where the receiver re-orders retransmissions.
	DeliveredOutOfOrder uint64

	// DropsRing / DropsSock / DropsBacklog count losses at the NIC ring,
	// socket receive queue and intermediate backlog queues.
	DropsRing    uint64 `obs:"nic_dropped"`
	DropsSock    uint64 `obs:"socket_dropped"`
	DropsBacklog uint64

	// Fault-injection and degradation counters, zero unless
	// Scenario.Faults is enabled.
	// FaultsInjected counts every injector decision that took effect
	// (drops, duplications, corruptions); FaultDrops only the losses.
	FaultsInjected uint64 `obs:"faults_injected,fault"`
	FaultDrops     uint64 `obs:"fault_drops,fault"`
	// Retransmits counts resent TCP segments; RTOTimeouts timer-driven
	// recoveries; FastRetransmits triple-dup-ACK recoveries.
	Retransmits     uint64 `obs:"retransmits,fault"`
	RTOTimeouts     uint64 `obs:"rto_timeouts,fault"`
	FastRetransmits uint64 `obs:"fast_retransmits,fault"`
	// StaleReleased counts skbs the reassembler delivered behind its
	// merging counter (late retransmissions); HolesReleased counts
	// gap-timeout force-releases; OFOPruned counts skbs evicted from the
	// bounded TCP out-of-order queue; TCPDupSegments counts duplicate
	// segments the TCP receiver discarded.
	StaleReleased  uint64 `obs:"stale_released,fault"`
	HolesReleased  uint64 `obs:"holes_released,fault"`
	OFOPruned      uint64 `obs:"ofo_pruned,fault"`
	TCPDupSegments uint64 `obs:"tcp_dup_segments,fault"`
	// ReassemblyErrors counts contiguity violations the reassembler
	// recorded instead of panicking (Result.ReassemblyErr keeps the first).
	ReassemblyErrors uint64 `obs:"reassembly_errors,fault"`

	// NIC admission accounting (always measured): OfferedFrames counts
	// every frame presented to the NIC, AcceptedFrames those a descriptor
	// ring accepted, and DropsAdmission those the overload memory budget
	// rejected before the ring. Conservation holds:
	// OfferedFrames == AcceptedFrames + DropsRing + DropsAdmission.
	OfferedFrames  uint64 `obs:"nic_offered"`
	AcceptedFrames uint64 `obs:"nic_received"`
	DropsAdmission uint64 `obs:"nic_admission_dropped"`

	// Overload-control counters, zero unless Scenario.Overload is
	// enabled. DropsAQM counts CoDel discards across backlog and splitting
	// queues (distinct from tail-drop DropsBacklog); OverloadGated counts
	// enqueues refused by the critical-pressure admission gate.
	DropsAQM      uint64 `obs:"aqm_dropped,overload"`
	OverloadGated uint64 `obs:"overload_gated,overload"`
	// PollModeEntered / PollModeExited count livelock-mitigation
	// transitions (IRQs masked / unmasked).
	PollModeEntered uint64 `obs:"poll_mode_entered,overload"`
	PollModeExited  uint64 `obs:"poll_mode_exited,overload"`
	// WatchdogResteers counts stalled-branch rescues; WatchdogResteeredSKBs
	// the skbs moved.
	WatchdogResteers      uint64 `obs:"watchdog_resteers,overload"`
	WatchdogResteeredSKBs uint64 `obs:"watchdog_resteered_skbs,overload"`
	// DegradeCollapses / DegradeRestores count splitting-degree collapses
	// to 1 (≈ RPS) and parallelism restorations; ReasmBudgetReleased the
	// skbs the reassembler force-released over its memory budget.
	DegradeCollapses    uint64 `obs:"degrade_collapses,overload"`
	DegradeRestores     uint64 `obs:"degrade_restores,overload"`
	ReasmBudgetReleased uint64 `obs:"reasm_budget_released,overload"`

	// Fabric underlay counters, zero unless Scenario.Fabric is enabled.
	// UnderlaySent counts frames put on the underlay toward their owner
	// host; UnderlayDelivered those handed to a remote NIC chain;
	// UnderlayDrops tail drops at link queues. Conservation holds across
	// window boundaries:
	// UnderlaySent + Result.UnderlayInFlightStart ==
	//     UnderlayDelivered + UnderlayDrops + Result.UnderlayInFlightEnd.
	UnderlaySent      uint64 `obs:"underlay_sent,underlay"`
	UnderlayDelivered uint64 `obs:"underlay_delivered,underlay"`
	UnderlayDrops     uint64 `obs:"underlay_dropped,underlay"`
	// UnderlayFloodCopies counts head-end-replication copies serialized
	// for non-owner peers while a destination MAC was unlearned.
	UnderlayFloodCopies uint64 `obs:"underlay_flood_copies,underlay"`

	// msgs counts completed messages, the numerator of Result.MsgPerSec.
	msgs uint64
}

// String summarizes the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("%-28s %7.2f Gbps  p50=%s p99=%s",
		r.Scenario.Name(), r.Gbps,
		sim.Duration(r.Latency.Median()), sim.Duration(r.Latency.P99()))
}
