package bench

import (
	"fmt"
	"sort"

	"mflow/internal/fault"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// chaosWindows keeps the matrix affordable: 6 systems × 2 protocols ×
// 3 profiles is 36 runs, each over a 2ms+6ms window.
const (
	chaosWarmup  = 2 * sim.Millisecond
	chaosMeasure = 6 * sim.Millisecond
)

// Chaos runs the fault-injection acceptance matrix: every steering system ×
// protocol × fault profile, reporting goodput retention against the
// lossless run and the recovery work each system performed (retransmits,
// RTO expiries, reassembler hole releases, stale deliveries, pruned
// out-of-order entries). A TCP cell also asserts the in-order delivery
// contract: the ooo column must read 0.
func (r *Runner) Chaos() []*Table {
	profiles := fault.ChaosProfiles()
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic matrix order

	var tables []*Table
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		tab := &Table{
			ID:    fmt.Sprintf("chaos-%s", proto),
			Title: fmt.Sprintf("%s goodput under fault injection (retained fraction of lossless)", proto),
			Columns: []string{"system", "profile", "Gbps", "retained",
				"retx", "rto", "fast", "holes", "stale", "pruned", "ooo", "faults"},
		}
		for _, sys := range steering.Systems {
			lossless := r.chaosRun(sys, proto, nil)
			for _, name := range names {
				res := r.chaosRun(sys, proto, profiles[name])
				retained := 0.0
				if lossless.Gbps > 0 {
					retained = res.Gbps / lossless.Gbps
				}
				tab.Rows = append(tab.Rows, []string{
					sys.String(), name,
					fmt.Sprintf("%.2f", res.Gbps),
					fmt.Sprintf("%.2f", retained),
					fmt.Sprintf("%d", res.Retransmits),
					fmt.Sprintf("%d", res.RTOTimeouts),
					fmt.Sprintf("%d", res.FastRetransmits),
					fmt.Sprintf("%d", res.HolesReleased),
					fmt.Sprintf("%d", res.StaleReleased),
					fmt.Sprintf("%d", res.OFOPruned),
					fmt.Sprintf("%d", res.DeliveredOutOfOrder),
					fmt.Sprintf("%d", res.FaultsInjected),
				})
			}
		}
		tab.Notes = append(tab.Notes,
			"retained = lossy Gbps / lossless Gbps for the same system",
			"profiles: random = uniform 1% loss + 0.2% dup; burst = Gilbert-Elliott, mean burst 10 frames")
		if proto == skb.TCP {
			tab.Notes = append(tab.Notes,
				"ooo counts out-of-order deliveries at the socket: TCP's contract requires 0")
		}
		tables = append(tables, tab)
	}
	return tables
}

func (r *Runner) chaosRun(sys steering.System, proto skb.Proto, plan *fault.Plan) *overlay.Result {
	return r.run(chaosScenario(sys, proto, plan))
}

// chaosScenario is one cell of the fault-injection matrix.
func chaosScenario(sys steering.System, proto skb.Proto, plan *fault.Plan) overlay.Scenario {
	return overlay.Scenario{
		System: sys, Proto: proto, MsgSize: 65536,
		Warmup: chaosWarmup, Measure: chaosMeasure,
		Faults: plan,
	}
}
