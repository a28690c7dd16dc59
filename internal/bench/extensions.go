package bench

import (
	"fmt"

	"mflow/internal/overlay"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// Extensions benchmarks features beyond the paper's evaluation: the Slim
// (NSDI'19) related-work baseline, the paper's stated future work
// (parallelizing the receiver's single data-copying thread), elephant-flow
// auto-detection, and the explicit sender-side transmit pipeline.
func (r *Runner) Extensions() []*Table {
	return []*Table{
		r.ExtensionSlim(),
		r.ExtensionCopyThreads(),
		r.ExtensionAutoDetect(),
		r.ExtensionSenderSide(),
	}
}

// copyThreadsScenario is the parallel delivery-copy extension cell.
func copyThreadsScenario(n int) overlay.Scenario {
	return overlay.Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
		AppCores:    n,
		CopyThreads: n,
		MFlow:       overlay.MFlowConfig{SplitCores: 3},
		KernelCores: 8,
	}
}

// ExtensionAutoDetect compares always-on splitting against splitting only
// detector-promoted elephants — the identification the paper's "any
// identified (elephant) flow" presumes.
func (r *Runner) ExtensionAutoDetect() *Table {
	t := &Table{ID: "ext-autodetect", Title: "Elephant detection: split everything vs split promoted flows only (UDP 64KB)"}
	t.Columns = []string{"policy", "Gbps", "merge-point OOO", "delivered OOO"}
	always := r.run(overlay.Scenario{System: steering.MFlow, Proto: skb.UDP, MsgSize: 65536})
	auto := r.run(overlay.Scenario{System: steering.MFlow, Proto: skb.UDP, MsgSize: 65536,
		MFlow: overlay.MFlowConfig{AutoDetect: true}})
	mouse := r.run(overlay.Scenario{System: steering.MFlow, Proto: skb.UDP, MsgSize: 65536,
		MFlow: overlay.MFlowConfig{AutoDetect: true, ElephantBps: 50e9}})
	row := func(name string, res *overlay.Result) []string {
		return []string{name, gbps(res.Gbps), fmt.Sprintf("%d", res.OOOSKBs), fmt.Sprintf("%d", res.DeliveredOutOfOrder)}
	}
	t.Rows = append(t.Rows, row("split always (paper default)", always))
	t.Rows = append(t.Rows, row("auto-detect (1 Gbps threshold; promoted)", auto))
	t.Rows = append(t.Rows, row("auto-detect, threshold above offered rate (mouse)", mouse))
	t.Notes = append(t.Notes,
		"Elephants get full splitting; mice skip it entirely (zero reordering, no IPIs) while",
		"still flowing through the reassembler so reclassification stays order-safe.")
	return t
}

// ExtensionSenderSide swaps the aggregate client-cost model for the
// explicit transmit pipeline (socket path, GSO, container egress, qdisc,
// NIC TX, wire) and locates the sender-side bottleneck the paper's
// conclusion describes.
func (r *Runner) ExtensionSenderSide() *Table {
	t := &Table{ID: "ext-txpath", Title: "Explicit sender-side pipeline (ModelTX) vs aggregate client model"}
	t.Columns = []string{"scenario", "aggregate model", "explicit TX pipeline"}
	names := []string{"MFLOW TCP 64KB (Gbps)", "MFLOW TCP 16B (Kmsg/s)", "vanilla UDP 64KB (Gbps)"}
	for i, sc := range []overlay.Scenario{
		{System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536},
		{System: steering.MFlow, Proto: skb.TCP, MsgSize: 16},
		{System: steering.Vanilla, Proto: skb.UDP, MsgSize: 65536},
	} {
		agg := r.run(sc)
		scTX := sc
		scTX.ModelTX = true
		tx := r.run(scTX)
		fmtv := func(res *overlay.Result) string {
			if sc.MsgSize == 16 {
				return fmt.Sprintf("%.0f", res.MsgPerSec/1000)
			}
			return gbps(res.Gbps)
		}
		t.Rows = append(t.Rows, []string{names[i], fmtv(agg), fmtv(tx)})
	}
	t.Notes = append(t.Notes,
		"With the explicit pipeline, small-message TCP is bottlenecked in the sender's socket",
		"path and UDP by the sender egress chain — the bottlenecks the paper's conclusion names.")
	return t
}

// ExtensionSlim compares Slim's overlay bypass against MFLOW: near-native
// for TCP, inapplicable to UDP (paper §VI discussion).
func (r *Runner) ExtensionSlim() *Table {
	t := &Table{ID: "ext-slim", Title: "Slim (NSDI'19) overlay bypass vs MFLOW (64KB)"}
	t.Columns = []string{"system", "TCP Gbps", "UDP Gbps", "notes"}
	for _, sys := range []steering.System{steering.Native, steering.Slim, steering.Vanilla, steering.MFlow} {
		tcp := r.single(sys, skb.TCP, 65536)
		udp := r.single(sys, skb.UDP, 65536)
		note := ""
		switch sys {
		case steering.Slim:
			note = "UDP unsupported: falls back to vanilla overlay"
		case steering.MFlow:
			note = "keeps the overlay yet beats native for TCP"
		}
		t.Rows = append(t.Rows, []string{sys.String(), gbps(tcp.Gbps), gbps(udp.Gbps), note})
	}
	t.Notes = append(t.Notes,
		"Slim removes packet transformation (near-native TCP) but cannot serve connectionless protocols",
		"and gives up overlay manageability; MFLOW preserves the overlay and its tooling.")
	return t
}

// ExtensionCopyThreads parallelizes the user-space delivery copy — the
// residual bottleneck the paper's conclusion identifies — and shows MFLOW's
// TCP throughput scaling past the single-thread ceiling.
func (r *Runner) ExtensionCopyThreads() *Table {
	t := &Table{ID: "ext-copythreads", Title: "Future work: parallel delivery-copy threads (MFLOW, TCP 64KB)"}
	t.Columns = []string{"copy threads", "Gbps", "app-core bound?"}
	for _, n := range []int{1, 2, 3} {
		res := r.run(copyThreadsScenario(n))
		bound := "yes (single copy thread saturates core 0)"
		if n > 1 {
			bound = "shifts back into the kernel path"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), gbps(res.Gbps), bound})
	}
	t.Notes = append(t.Notes,
		"The paper: 'a new bottleneck arises due to data copying from the kernel to the user-space",
		"application' — parallel copy threads (its future work) lift that ceiling.")
	return t
}
