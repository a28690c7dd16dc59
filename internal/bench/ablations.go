package bench

import (
	"fmt"

	"mflow/internal/overlay"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// Ablations benchmarks the design choices DESIGN.md calls out: batch
// reassembly vs the kernel's per-packet out-of-order queue, early vs late
// merging (UDP), IRQ-splitting vs flow-splitting only (TCP), splitting-core
// count, and the driver completion-update batching factor.
func (r *Runner) Ablations() []*Table {
	// IRQ-splitting is built before late merging, though tabled after it,
	// so the runs are requested (and recorded in the artifact) in the
	// order BENCH_all.json lists them.
	reassembly := r.AblationReassembly()
	irqSplit := r.AblationIRQSplit()
	lateMerge := r.AblationLateMerge()
	return []*Table{
		reassembly,
		lateMerge,
		irqSplit,
		r.AblationSplitCores(),
		r.AblationCompletion(),
	}
}

func (r *Runner) mflowTCP(m overlay.MFlowConfig) *overlay.Result {
	return r.run(mflowScenario(skb.TCP, m))
}

func (r *Runner) mflowUDP(m overlay.MFlowConfig) *overlay.Result {
	return r.run(mflowScenario(skb.UDP, m))
}

func mflowScenario(proto skb.Proto, m overlay.MFlowConfig) overlay.Scenario {
	return overlay.Scenario{System: steering.MFlow, Proto: proto, MsgSize: 65536, MFlow: m}
}

// completionScenario is the driver completion-batching ablation cell: one
// splitting core isolates the skb-allocation stage so the update cost is
// visible against it.
func completionScenario(n int) overlay.Scenario {
	costs := overlay.DefaultCosts()
	costs.CompletionEvery = n
	return overlay.Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
		MFlow: overlay.MFlowConfig{SplitCores: 1},
		Costs: costs,
	}
}

// AblationReassembly compares MFLOW's batch-based reassembler against the
// kernel's per-packet out-of-order queue (paper §III-B's motivation).
func (r *Runner) AblationReassembly() *Table {
	t := &Table{ID: "ablation-reassembly", Title: "Batch reassembly vs kernel per-packet ofo queue (TCP 64KB)"}
	t.Columns = []string{"order restoration", "Gbps", "p50 latency (µs)", "tcp ofo skbs"}
	batch := r.mflowTCP(overlay.MFlowConfig{})
	perPkt := r.mflowTCP(overlay.MFlowConfig{PerPacketReorder: true})
	row := func(name string, res *overlay.Result) []string {
		return []string{name, gbps(res.Gbps),
			fmt.Sprintf("%.0f", float64(res.Latency.Median())/1000),
			fmt.Sprintf("%d", res.TCPOFOSegments)}
	}
	t.Rows = append(t.Rows, row("batch reassembler (mflow)", batch))
	t.Rows = append(t.Rows, row("per-packet ofo queue", perPkt))
	t.Notes = append(t.Notes, "The merging counter restores order per batch; the ofo queue pays per packet.")
	return t
}

// AblationLateMerge compares merging right after the heavy device against
// merging at the socket (the paper's late-merge optimization for UDP).
func (r *Runner) AblationLateMerge() *Table {
	t := &Table{ID: "ablation-latemerge", Title: "Early vs late micro-flow merging (UDP 64KB, equal 4-core budget)"}
	t.Columns = []string{"merge point", "kernel cores", "Gbps", "p50 latency (µs)"}
	// Early merging needs an extra core for the post-merge path, so the
	// fair comparison holds the kernel-core budget constant: late merge
	// turns that core into a third splitting core (the paper's point —
	// late merging parallelizes the full path with the same cores).
	late := r.mflowUDP(overlay.MFlowConfig{LateMerge: true, SplitCores: 3})
	early := r.mflowUDP(overlay.MFlowConfig{EarlyMerge: true, SplitCores: 2})
	row := func(name, cores string, res *overlay.Result) []string {
		return []string{name, cores, gbps(res.Gbps), fmt.Sprintf("%.0f", float64(res.Latency.Median())/1000)}
	}
	t.Rows = append(t.Rows, row("late (at socket, 3 split cores)", "1+3", late))
	t.Rows = append(t.Rows, row("early (after VxLAN, 2 split + 1 merge-tail)", "1+2+1", early))
	t.Notes = append(t.Notes, "Late merging spends every core on parallel full-path work (paper §III-B).")
	return t
}

// AblationIRQSplit compares full IRQ-splitting (pre-skb) against the
// flow-splitting function alone (post-skb) for TCP.
func (r *Runner) AblationIRQSplit() *Table {
	t := &Table{ID: "ablation-irqsplit", Title: "IRQ-splitting (pre-skb) vs flow-splitting only (TCP 64KB)"}
	t.Columns = []string{"splitting mechanism", "Gbps"}
	full := r.mflowTCP(overlay.MFlowConfig{})
	flowOnly := r.mflowTCP(overlay.MFlowConfig{FlowSplitOnly: true})
	t.Rows = append(t.Rows, []string{"IRQ-splitting, full-path scaling", gbps(full.Gbps)})
	t.Rows = append(t.Rows, []string{"flow-splitting only (skb alloc serialized)", gbps(flowOnly.Gbps)})
	t.Notes = append(t.Notes,
		"Without pre-skb splitting the skb-allocation core throttles TCP, as with FALCON-func.")
	return t
}

// AblationSplitCores sweeps the number of splitting cores (paper §III-A:
// benefits diminish beyond a few cores).
func (r *Runner) AblationSplitCores() *Table {
	t := &Table{ID: "ablation-cores", Title: "Splitting-core count (UDP 64KB, device scaling)"}
	t.Columns = []string{"split cores", "Gbps", "gain vs previous"}
	prev := 0.0
	for _, n := range []int{1, 2, 3, 4} {
		res := r.mflowUDP(overlay.MFlowConfig{SplitCores: n})
		gain := "-"
		if prev > 0 {
			gain = pct(res.Gbps / prev)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), gbps(res.Gbps), gain})
		prev = res.Gbps
	}
	t.Notes = append(t.Notes, "Two cores already beat every baseline; returns diminish beyond that (paper §V-A).")
	return t
}

// AblationCompletion sweeps the driver completion-update batching factor
// (the paper updates the driver every 128 requests to limit contention).
func (r *Runner) AblationCompletion() *Table {
	t := &Table{ID: "ablation-completion", Title: "Driver completion-update batching (TCP 64KB, IRQ-splitting)"}
	t.Columns = []string{"update every N requests", "Gbps"}
	for _, n := range []int{1, 8, 32, 128, 512} {
		res := r.run(completionScenario(n))
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), gbps(res.Gbps)})
	}
	t.Notes = append(t.Notes, "Per-request updates serialize on the driver state; batching (default 128) amortizes them.")
	return t
}
