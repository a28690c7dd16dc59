package bench

import (
	"fmt"

	"mflow/internal/overlay"
	"mflow/internal/overload"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// overloadWindows match the chaos matrix: the figure is about control-law
// behavior under saturation, not statistical stability, so short windows
// keep the client sweep affordable.
const (
	overloadWarmup  = 2 * sim.Millisecond
	overloadMeasure = 6 * sim.Millisecond
)

// livelockScenario is one point of the receive-livelock curve: vanilla UDP
// under interrupt-per-frame delivery, with or without polling mitigation.
// Single-frame messages (1500B) make goodput proportional to delivered
// packets — the unit the original livelock experiment plots — instead of
// collapsing whenever one frame of a large message is shed.
func livelockScenario(clients int, mitigated bool) overlay.Scenario {
	return overlay.Scenario{
		System: steering.Vanilla, Proto: skb.UDP, MsgSize: 1500,
		UDPClients: clients,
		Warmup:     overloadWarmup, Measure: overloadMeasure,
		Overload: overload.LivelockConfig(mitigated),
	}
}

// pressureScenario is one cell of the pressure matrix: the full "pressure"
// profile (memory budget + CoDel AQM + degradation + watchdog) under 2x
// offered load.
func pressureScenario(sys steering.System, proto skb.Proto) overlay.Scenario {
	return overlay.Scenario{
		System: sys, Proto: proto, MsgSize: 65536,
		Window: 4096, UDPClients: 6,
		Warmup: overloadWarmup, Measure: overloadMeasure,
		Overload: overload.Profiles()["pressure"],
	}
}

// Overload builds the overload-control figure: the Mogul/Ramakrishnan
// receive-livelock curve (interrupt-per-frame throughput collapses with
// offered load; masked-IRQ polling plateaus), and the overload matrix under
// the "pressure" profile (memory budget, CoDel AQM, reassembler degradation
// and the stall watchdog) at 2x offered load.
func (r *Runner) Overload() []*Table {
	curve := &Table{
		ID:    "overload-livelock",
		Title: "Receive livelock: interrupt-per-frame vs polling mode (vanilla UDP, 1500B datagrams)",
		Columns: []string{"clients", "irq/frame Gbps", "polling Gbps",
			"irq/frame IRQs", "polling IRQs", "polling ring drops"},
	}
	for _, n := range []int{1, 2, 4, 6, 8} { // offered-load sweep
		raw := r.runObserved(livelockScenario(n, false))
		polled := r.runObserved(livelockScenario(n, true))
		curve.Rows = append(curve.Rows, []string{
			fmt.Sprintf("%d", n),
			gbps(raw.Gbps), gbps(polled.Gbps),
			fmt.Sprintf("%.0f", raw.Obs["nic_irqs"].Value),
			fmt.Sprintf("%.0f", polled.Obs["nic_irqs"].Value),
			fmt.Sprintf("%d", polled.DropsRing),
		})
	}
	curve.Notes = append(curve.Notes,
		"irq/frame charges the IRQ top half for every offered frame (no NAPI moderation): past saturation the core spends its cycles on interrupts for frames it then drops — the Mogul/Ramakrishnan livelock collapse.",
		"polling masks IRQs once softirq occupancy crosses the threshold and drains the ring on the NAPI budget, so goodput plateaus instead of collapsing; excess load is shed at the full descriptor ring without costing an interrupt (IRQ counts are measured-window; past saturation the mode engages during warmup and stays).")

	press := &Table{
		ID:    "overload-pressure",
		Title: "Overload control under 2x offered load (pressure profile: memory budget + CoDel + degradation + watchdog)",
		Columns: []string{"system", "proto", "Gbps", "adm drops", "aqm drops",
			"gated", "sojourn p99 (us)", "collapses", "restores", "resteers", "mem peak (KB)"},
	}
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		// The serialized baseline, classic RPS steering, MFLOW's split path.
		for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
			res := r.run(pressureScenario(sys, proto))
			press.Rows = append(press.Rows, []string{
				sys.String(), proto.String(), gbps(res.Gbps),
				fmt.Sprintf("%d", res.DropsAdmission),
				fmt.Sprintf("%d", res.DropsAQM),
				fmt.Sprintf("%d", res.OverloadGated),
				fmt.Sprintf("%.0f", float64(res.AQMSojournP99)/1000),
				fmt.Sprintf("%d", res.DegradeCollapses),
				fmt.Sprintf("%d", res.DegradeRestores),
				fmt.Sprintf("%d", res.WatchdogResteers),
				fmt.Sprintf("%d", res.MemPeakBytes/1024),
			})
		}
	}
	press.Notes = append(press.Notes,
		"adm drops: frames rejected at NIC admission by the skb memory budget; gated: enqueues refused while critical pressure caps standing backlogs.",
		"frame conservation holds per run: offered == accepted + ring drops + adm drops.")
	return []*Table{curve, press}
}
