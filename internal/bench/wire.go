package bench

import (
	"fmt"

	"mflow/internal/fabric"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// Short windows, like chaos/overload/fabric: the wire figure is about
// byte-path integrity and model invariance, not statistical stability.
const (
	wireWarmup  = 2 * sim.Millisecond
	wireMeasure = 6 * sim.Millisecond
)

// wireScenario is one cell of the wire matrix: the standard 64KB message
// workload with real bytes attached when wire is true.
func wireScenario(sys steering.System, proto skb.Proto, wire bool) overlay.Scenario {
	return overlay.Scenario{
		System: sys, Proto: proto, MsgSize: 65536,
		WireMode: wire,
		Warmup:   wireWarmup, Measure: wireMeasure,
	}
}

// wireFabricScenario sends two wire-bearing flows across a two-host
// fabric, so the bytes also traverse the VTEP push and the remote
// validated pull.
func wireFabricScenario(sys steering.System) overlay.Scenario {
	sc := wireScenario(sys, skb.TCP, true)
	sc.Flows = 2
	sc.Fabric = &fabric.Config{Hosts: 2}
	return sc
}

// Wire builds the zero-copy byte-path figure: every run in the matrix
// carries real frames — payloads written into headroom-reserved arenas,
// headers pushed in place, GRO chaining frag references, decap a
// validated pull — and the integrity columns must read zero. The
// synthetic columns double as the model-invariance check: attaching
// bytes must not move Gbps, because skb contents are timing-inert.
//
// This figure is deliberately not part of `-fig all`, so the committed
// all-figure artifact stays byte-identical across byte-path work.
func (r *Runner) Wire() []*Table {
	single := &Table{
		ID:    "wire-integrity",
		Title: "Wire mode: end-to-end byte integrity and model invariance (64KB messages)",
		Columns: []string{"system", "proto", "synthetic Gbps", "wire Gbps",
			"wire/synthetic", "wire errors", "GRO factor"},
	}
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		// The steering spectrum the byte path must survive: host networking
		// (no encap), the serialized overlay baseline, classic RPS and
		// MFLOW's split path.
		for _, sys := range []steering.System{steering.Native, steering.Vanilla, steering.RPS, steering.MFlow} {
			syn := r.run(wireScenario(sys, proto, false))
			wire := r.run(wireScenario(sys, proto, true))
			single.Rows = append(single.Rows, []string{
				fmt.Sprint(sys),
				fmt.Sprint(proto),
				gbps(syn.Gbps),
				gbps(wire.Gbps),
				fmt.Sprintf("%.3f", wire.Gbps/syn.Gbps),
				fmt.Sprintf("%d", wire.WireErrors),
				fmt.Sprintf("%.2f", wire.GROFactor),
			})
		}
	}
	single.Notes = append(single.Notes,
		"wire/synthetic must stay within noise of 1.000: frame bytes ride the same skbs the synthetic run schedules, and stage costs depend only on Segs/WireLen, so the byte path may not perturb the performance model.",
		"wire errors counts decap failures plus socket payload-verification failures over the measured window; any nonzero value is a byte-path bug, not a statistic.")

	fab := &Table{
		ID:    "wire-fabric",
		Title: "Wire mode across a 2-host fabric (TCP 64KB, two flows): VTEP in-place encap, remote validated decap",
		Columns: []string{"system", "Gbps", "wire errors", "underlay frames",
			"GRO factor"},
	}
	for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
		res := r.run(wireFabricScenario(sys))
		fab.Rows = append(fab.Rows, []string{
			fmt.Sprint(sys),
			gbps(res.Gbps),
			fmt.Sprintf("%d", res.WireErrors),
			fmt.Sprintf("%d", res.UnderlaySent),
			fmt.Sprintf("%.2f", res.GROFactor),
		})
	}
	fab.Notes = append(fab.Notes,
		"the sender reserves outer-header headroom when it lays down the inner frame, so the TX host's VTEP push is an O(1) pointer move — crossing the fabric adds no copy.",
		"decap on the owner host validates every chained GRO part before trimming any of them; an error would leave the super-packet whole and count here.")
	return []*Table{single, fab}
}
