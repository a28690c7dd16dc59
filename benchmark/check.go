package main

import (
	"fmt"
	"regexp"

	"mflow/internal/bench"
	"mflow/internal/causal"
	"mflow/internal/overlay"
	"mflow/internal/skb"
)

// checkRun is the benchmark's correctness gate for one scenario run. It
// returns why the run is wrong, or "" for a correct run. The invariants are
// the ones the simulator promises on every path the workloads drive: TCP
// delivers in order, wire bytes survive unless the plan corrupts them, the
// reassembler never records a contiguity violation, every frame offered to
// a NIC (and every frame put on the underlay) is accounted for, and causal
// attribution tiles each packet's latency exactly.
func checkRun(res *overlay.Result, prof *causal.Profiler) string {
	sc := res.Scenario
	switch {
	case sc.Proto == skb.TCP && sc.CopyThreads <= 1 && res.DeliveredOutOfOrder != 0:
		return fmt.Sprintf("TCP delivered %d segments out of order", res.DeliveredOutOfOrder)
	case res.WireErrors != 0 && (sc.Faults == nil || sc.Faults.Wire.Corrupt == 0):
		return fmt.Sprintf("%d wire errors without a corruption fault", res.WireErrors)
	case res.ReassemblyErrors != 0:
		return fmt.Sprintf("%d reassembly errors, first: %v", res.ReassemblyErrors, res.ReassemblyErr)
	case res.OfferedFrames != res.AcceptedFrames+res.DropsRing+res.DropsAdmission:
		return fmt.Sprintf("frame conservation: offered %d != accepted %d + ring %d + admission %d",
			res.OfferedFrames, res.AcceptedFrames, res.DropsRing, res.DropsAdmission)
	case sc.Fabric.Enabled() &&
		res.UnderlaySent+uint64(res.UnderlayInFlightStart) != res.UnderlayDelivered+res.UnderlayDrops+uint64(res.UnderlayInFlightEnd):
		return fmt.Sprintf("underlay conservation: sent %d + in flight %d != delivered %d + drops %d + in flight %d",
			res.UnderlaySent, res.UnderlayInFlightStart, res.UnderlayDelivered, res.UnderlayDrops, res.UnderlayInFlightEnd)
	case prof != nil && prof.Violations() != 0:
		return fmt.Sprintf("%d causal attribution violations, first: %s", prof.Violations(), prof.FirstViolation())
	}
	return ""
}

// copyThreadsRE reads a scenario's copy-thread count from its key.
var copyThreadsRE = regexp.MustCompile(`CopyThreads:(\d+)`)

// checkRecord is checkRun for a paper-all artifact record, which carries
// no frame or wire counters: TCP must deliver in order. Scenarios with
// several copy threads are exempt from ordering, there and in checkRun:
// the parallel delivery-copy extension completes copies on independent
// app cores, so the socket sees them in completion order by design.
func checkRecord(rec bench.RunRecord) string {
	if rec.Proto != skb.TCP.String() || rec.DeliveredOutOfOrder == 0 {
		return ""
	}
	if m := copyThreadsRE.FindStringSubmatch(rec.Key); m != nil && m[1] != "0" && m[1] != "1" {
		return ""
	}
	return fmt.Sprintf("%s: TCP delivered %d segments out of order", rec.Name, rec.DeliveredOutOfOrder)
}
