package overlay

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Fingerprint renders a canonical, exhaustive digest of the result: every
// counter, the latency distribution, the per-core CPU breakdown (tags
// sorted) and the full observability snapshot. Two results fingerprint
// equal iff they are the same measurement — floats are rendered through
// their IEEE-754 bit patterns, so equality means bit-identical, never
// approximately equal. The determinism tests compare serial, repeated and
// harness-parallel runs of the same scenario through this digest.
func (r *Result) Fingerprint() string {
	f := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s\n", r.Scenario.Key())
	fmt.Fprintf(&b, "gbps=%s msg/s=%s bytes=%d segs=%d\n",
		f(r.Gbps), f(r.MsgPerSec), r.DeliveredBytes, r.DeliveredSegments)
	fmt.Fprintf(&b, "ooo_segs=%d ooo_skbs=%d tcp_ofo=%d switches=%d delivered_ooo=%d\n",
		r.OOOSegments, r.OOOSKBs, r.TCPOFOSegments, r.ReassemblySwitches, r.DeliveredOutOfOrder)
	fmt.Fprintf(&b, "drops ring=%d sock=%d backlog=%d wire_errs=%d\n",
		r.DropsRing, r.DropsSock, r.DropsBacklog, r.WireErrors)
	fmt.Fprintf(&b, "faults=%d fault_drops=%d retx=%d rto=%d fast=%d\n",
		r.FaultsInjected, r.FaultDrops, r.Retransmits, r.RTOTimeouts, r.FastRetransmits)
	fmt.Fprintf(&b, "stale=%d holes=%d pruned=%d dup=%d reasm_errs=%d reasm_err=%v\n",
		r.StaleReleased, r.HolesReleased, r.OFOPruned, r.TCPDupSegments, r.ReassemblyErrors, r.ReassemblyErr)
	fmt.Fprintf(&b, "gro=%s kcpu_total=%s kcpu_stddev=%s\n",
		f(r.GROFactor), f(r.KernelCPUTotal), f(r.KernelCPUStddev))
	fmt.Fprintf(&b, "overload offered=%d accepted=%d adm=%d aqm=%d gated=%d poll_in=%d poll_out=%d resteers=%d resteered=%d collapses=%d restores=%d budget_rel=%d rec_max=%d mem_peak=%d sojourn_p99=%d\n",
		r.OfferedFrames, r.AcceptedFrames, r.DropsAdmission, r.DropsAQM,
		r.OverloadGated, r.PollModeEntered, r.PollModeExited,
		r.WatchdogResteers, r.WatchdogResteeredSKBs,
		r.DegradeCollapses, r.DegradeRestores, r.ReasmBudgetReleased,
		r.WatchdogRecoveryMaxNs, r.MemPeakBytes, r.AQMSojournP99)
	fmt.Fprintf(&b, "fabric sent=%d delivered=%d drops=%d copies=%d floods=%d learned=%d aged=%d inflight=%d/%d\n",
		r.UnderlaySent, r.UnderlayDelivered, r.UnderlayDrops, r.UnderlayFloodCopies,
		r.FDBFloods, r.FDBLearned, r.FDBAged,
		r.UnderlayInFlightStart, r.UnderlayInFlightEnd)
	if r.Latency != nil {
		fmt.Fprintf(&b, "latency count=%d sum=%s min=%d p50=%d p99=%d max=%d\n",
			r.Latency.Count(), f(r.Latency.Sum()),
			r.Latency.Min(), r.Latency.Median(), r.Latency.P99(), r.Latency.Max())
	}
	for _, c := range r.CPU {
		tags := make([]string, 0, len(c.ByTag))
		for tag := range c.ByTag {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		fmt.Fprintf(&b, "cpu[%d] total=%s", c.Core, f(c.Total))
		for _, tag := range tags {
			fmt.Fprintf(&b, " %s=%s", tag, f(c.ByTag[tag]))
		}
		b.WriteByte('\n')
	}
	for _, name := range r.Obs.Names() {
		m := r.Obs[name]
		fmt.Fprintf(&b, "obs %s kind=%s value=%s count=%d sum=%s min=%d p50=%d p99=%d max=%d\n",
			name, m.Kind, f(m.Value), m.Count, f(m.Sum), m.Min, m.P50, m.P99, m.Max)
	}
	return b.String()
}
