package bench

import (
	"fmt"

	"mflow/internal/fabric"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// fabricWindows match chaos and overload: the figure is about scale-out
// shape and incast saturation, not statistical stability, so short windows
// keep the host-count sweep affordable.
const (
	fabricWarmup  = 2 * sim.Millisecond
	fabricMeasure = 6 * sim.Millisecond
)

// fabricScaleScenario is one point of the scale-out curve: hosts paired
// ring-wise (every host sends one flow and receives one), one flow per
// host so offered load grows with the fabric. hosts == 1 leaves Fabric nil
// — the probe-pure single-host path.
func fabricScaleScenario(sys steering.System, hosts int) overlay.Scenario {
	sc := overlay.Scenario{
		System: sys, Proto: skb.TCP, MsgSize: 65536,
		Flows:  hosts,
		Warmup: fabricWarmup, Measure: fabricMeasure,
	}
	if hosts >= 2 {
		sc.Fabric = &fabric.Config{Hosts: hosts}
	}
	return sc
}

// fabricIncastScenario is one point of the N→1 incast table: every flow
// lands on host 0 while hosts 1..N-1 send two flows each, over a 10 Gbps
// underlay so the receiver's downlink is the bottleneck.
func fabricIncastScenario(hosts int) overlay.Scenario {
	return overlay.Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
		Flows:  2 * (hosts - 1),
		Warmup: fabricWarmup, Measure: fabricMeasure,
		Fabric: &fabric.Config{
			Hosts:     hosts,
			Placement: fabric.PlaceIncast,
			LinkGbps:  10,
		},
	}
}

// Fabric builds the multi-host figure: aggregate goodput versus host count
// under pair placement (the scale-out curve), and the N→1 incast table
// where one receiver's downlink saturates and the underlay tail-drops.
func (r *Runner) Fabric() []*Table {
	scale := &Table{
		ID:    "fabric-scaleout",
		Title: "Multi-host scale-out: aggregate goodput vs host count (pair placement, one flow per host, TCP 64KB)",
		Columns: []string{"hosts", "vanilla Gbps", "rps Gbps", "mflow Gbps",
			"underlay frames", "fdb floods", "fdb learned"},
	}
	// Host-count sweep; 1 is the single-host (nil-Fabric) baseline the
	// multi-host points are read against.
	for _, n := range []int{1, 2, 3, 4} {
		row := make([]string, 0, len(scale.Columns))
		row = append(row, fmt.Sprintf("%d", n))
		var last *overlay.Result
		for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
			res := r.run(fabricScaleScenario(sys, n))
			row = append(row, gbps(res.Gbps))
			last = res
		}
		// Fabric counters from the MFLOW run; the 1-host baseline has no
		// underlay at all.
		row = append(row,
			fmt.Sprintf("%d", last.UnderlaySent),
			fmt.Sprintf("%d", last.FDBFloods),
			fmt.Sprintf("%d", last.FDBLearned))
		scale.Rows = append(scale.Rows, row)
	}
	scale.Notes = append(scale.Notes,
		"hosts=1 is the single-host baseline (Fabric disabled): zero underlay frames, identical code path to every other figure. Multi-host points pay underlay propagation and reliable-delivery overheads on top, so read the curve host-to-host rather than against row 1.",
		"pair placement chains hosts ring-wise, so each extra host adds one sender and one receiver; aggregate goodput grows with the fabric while per-host work stays flat.",
		"fdb floods/learned are run totals: the flood-then-learn transient plays out during warmup, after which forwarding is unicast.")

	incast := &Table{
		ID:    "fabric-incast",
		Title: "N→1 incast on a 10 Gbps underlay (MFLOW TCP, two flows per sender, all received on host 0)",
		Columns: []string{"hosts", "senders", "flows", "Gbps",
			"underlay sent", "delivered", "drops", "in flight (end)"},
	}
	for _, n := range []int{2, 3, 4} {
		res := r.run(fabricIncastScenario(n))
		incast.Rows = append(incast.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", n-1),
			fmt.Sprintf("%d", 2*(n-1)),
			gbps(res.Gbps),
			fmt.Sprintf("%d", res.UnderlaySent),
			fmt.Sprintf("%d", res.UnderlayDelivered),
			fmt.Sprintf("%d", res.UnderlayDrops),
			fmt.Sprintf("%d", res.UnderlayInFlightEnd),
		})
	}
	incast.Notes = append(incast.Notes,
		"every sender's uplink feeds host 0's 10 Gbps downlink: once offered load crosses the downlink rate the bounded queue fills and tail-drops, and goodput plateaus at the receiver's drain rate.",
		"frame conservation holds per run: sent + in-flight(start) == delivered + drops + in-flight(end).")
	return []*Table{scale, incast}
}
