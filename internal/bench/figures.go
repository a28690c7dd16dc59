package bench

import (
	"fmt"
	"strings"

	"mflow/internal/apps"
	"mflow/internal/metrics"
	"mflow/internal/overlay"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// MsgSizes is the message-size sweep of the paper's Figs. 4, 8 and 9.
var MsgSizes = []int{16, 1024, 4096, 65536}

// appSystems are the systems the application benchmarks (Figs. 11, 13)
// compare.
var appSystems = []steering.System{steering.Vanilla, steering.FalconDev, steering.MFlow}

// fig10Scenario is the shared multi-flow scenario shape of Figs. 10/12.
func fig10Scenario(sys steering.System, size, flows int) overlay.Scenario {
	return overlay.Scenario{
		System: sys, Proto: skb.TCP, MsgSize: size,
		Flows: flows, KernelCores: 10, AppCores: 5,
	}
}

func sizeLabel(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

// throughputTable renders one protocol's size×system throughput sweep.
func (r *Runner) throughputTable(id, title string, proto skb.Proto, systems []steering.System) *Table {
	t := &Table{ID: id, Title: title}
	t.Columns = []string{"msg size"}
	for _, s := range systems {
		t.Columns = append(t.Columns, s.String()+" (Gbps)")
	}
	for _, size := range MsgSizes {
		row := []string{sizeLabel(size)}
		for _, s := range systems {
			row = append(row, gbps(r.single(s, proto, size).Gbps))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// cpuNotes renders a per-core utilization breakdown for a scenario result.
func cpuNotes(label string, res *overlay.Result) []string {
	lines := strings.FieldsFunc(metrics.FormatCPU(res.CPU), func(r rune) bool { return r == '\n' })
	return append([]string{label + ":"}, lines...)
}

// Fig4 reproduces Fig. 4: single-flow throughput and CPU utilization of the
// state-of-the-art systems (no MFLOW yet — that is Fig. 8).
func (r *Runner) Fig4() []*Table {
	// The paper's state of the art — everything but MFLOW.
	systems := []steering.System{steering.Native, steering.Vanilla, steering.RPS, steering.FalconDev, steering.FalconFunc}
	tcp := r.throughputTable("fig4a-tcp", "Single-flow TCP throughput, state of the art", skb.TCP, systems)
	udp := r.throughputTable("fig4a-udp", "Single-flow UDP throughput, state of the art (3 clients)", skb.UDP, systems)

	cpu := &Table{ID: "fig4b", Title: "CPU utilization breakdown at 64KB (per core, per softirq)"}
	cpu.Columns = []string{"system", "kernel cores busy", "stddev (pp)"}
	for _, sys := range systems {
		res := r.single(sys, skb.TCP, 65536)
		hot := 0
		// Core 0 is the app core. Skipping it by index keeps the recording
		// pass's placeholder result (no CPU samples) safe.
		for i, c := range res.CPU {
			if i > 0 && c.Total > 0.10 {
				hot++
			}
		}
		cpu.Rows = append(cpu.Rows, []string{sys.String(), fmt.Sprintf("%d", hot), fmt.Sprintf("%.1f", res.KernelCPUStddev)})
		cpu.Notes = append(cpu.Notes, cpuNotes("TCP/"+sys.String(), res)...)
	}
	return []*Table{tcp, udp, cpu}
}

// Fig7 reproduces Fig. 7: out-of-order deliveries at the merge point versus
// the micro-flow batch size (TCP, 64KB messages).
func (r *Runner) Fig7() *Table {
	t := &Table{ID: "fig7", Title: "Out-of-order delivery vs micro-flow batch size (TCP 64KB)"}
	t.Columns = []string{"batch size", "OOO deliveries", "OOO segments", "reassembly switches", "throughput (Gbps)"}
	for _, b := range []int{1, 4, 16, 64, 256, 1024, 4096} {
		res := r.run(overlay.Scenario{
			System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
			MFlow: overlay.MFlowConfig{BatchSize: b},
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%d", res.OOOSKBs),
			fmt.Sprintf("%d", res.OOOSegments),
			fmt.Sprintf("%d", res.ReassemblySwitches),
			gbps(res.Gbps),
		})
	}
	t.Notes = append(t.Notes,
		"Paper: OOO work becomes negligible at batch >= 256; small batches also defeat GRO.")
	return t
}

// Fig8 reproduces Fig. 8: MFLOW against every baseline (8a) and its per-core
// CPU breakdown in the full-path (TCP) and device-scaling (UDP) layouts (8b).
func (r *Runner) Fig8() []*Table {
	tcp := r.throughputTable("fig8a-tcp", "Single-flow TCP throughput incl. MFLOW", skb.TCP, steering.Systems)
	udp := r.throughputTable("fig8a-udp", "Single-flow UDP throughput incl. MFLOW (3 clients)", skb.UDP, steering.Systems)

	// Headline ratios at 64KB.
	sum := &Table{ID: "fig8a-summary", Title: "Headline comparisons at 64KB (paper: TCP +81%/UDP +139% over vanilla; TCP 29.8 vs native 26.6)"}
	sum.Columns = []string{"metric", "paper", "measured"}
	gT := func(s steering.System) float64 { return r.single(s, skb.TCP, 65536).Gbps }
	gU := func(s steering.System) float64 { return r.single(s, skb.UDP, 65536).Gbps }
	sum.Rows = [][]string{
		{"TCP mflow vs vanilla", "+81%", pct(gT(steering.MFlow) / gT(steering.Vanilla))},
		{"UDP mflow vs vanilla", "+139%", pct(gU(steering.MFlow) / gU(steering.Vanilla))},
		{"TCP mflow vs falcon", "+22%", pct(gT(steering.MFlow) / gT(steering.FalconFunc))},
		{"UDP mflow vs falcon", "+21%", pct(gU(steering.MFlow) / gU(steering.FalconDev))},
		{"TCP mflow (Gbps)", "29.8", gbps(gT(steering.MFlow))},
		{"TCP native (Gbps)", "26.6", gbps(gT(steering.Native))},
	}

	cpu := &Table{ID: "fig8b", Title: "MFLOW per-core CPU breakdown at 64KB"}
	cpu.Columns = []string{"config", "GRO factor", "merge switches"}
	tcpRes := r.single(steering.MFlow, skb.TCP, 65536)
	udpRes := r.single(steering.MFlow, skb.UDP, 65536)
	cpu.Rows = [][]string{
		{"TCP full-path scaling", fmt.Sprintf("%.1f", tcpRes.GROFactor), fmt.Sprintf("%d", tcpRes.ReassemblySwitches)},
		{"UDP device scaling", fmt.Sprintf("%.1f", udpRes.GROFactor), fmt.Sprintf("%d", udpRes.ReassemblySwitches)},
	}
	cpu.Notes = append(cpu.Notes, cpuNotes("TCP full path", tcpRes)...)
	cpu.Notes = append(cpu.Notes, cpuNotes("UDP device scaling", udpRes)...)
	return []*Table{tcp, udp, sum, cpu}
}

// Fig9 reproduces Fig. 9: per-message latency under maximum load.
func (r *Runner) Fig9() []*Table {
	var tables []*Table
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		t := &Table{
			ID:    fmt.Sprintf("fig9-%s", proto),
			Title: fmt.Sprintf("%s latency under max load (median / p99, µs)", proto),
		}
		t.Columns = []string{"msg size"}
		for _, s := range steering.Systems {
			t.Columns = append(t.Columns, s.String())
		}
		for _, size := range MsgSizes {
			row := []string{sizeLabel(size)}
			for _, s := range steering.Systems {
				res := r.single(s, proto, size)
				row = append(row, fmt.Sprintf("%.0f/%.0f",
					float64(res.Latency.Median())/1000,
					float64(res.Latency.P99())/1000))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"Paper: MFLOW cuts vanilla-overlay median latency ~46% and p99 ~21% at 64KB TCP.")
		tables = append(tables, t)
	}
	return tables
}

// Fig10 reproduces Fig. 10: multi-flow TCP throughput (5 app cores, 10
// kernel cores) for 16B / 4KB / 64KB messages.
func (r *Runner) Fig10() []*Table {
	flowCounts := []int{1, 5, 10, 15, 20}
	systems := []steering.System{steering.Vanilla, steering.FalconDev, steering.MFlow}
	var tables []*Table
	for _, size := range []int{16, 4096, 65536} {
		t := &Table{
			ID:    fmt.Sprintf("fig10-%s", sizeLabel(size)),
			Title: fmt.Sprintf("Multi-flow TCP aggregate throughput, %s messages (Gbps)", sizeLabel(size)),
		}
		t.Columns = []string{"flows"}
		for _, s := range systems {
			t.Columns = append(t.Columns, s.String())
		}
		for _, n := range flowCounts {
			row := []string{fmt.Sprintf("%d", n)}
			for _, s := range systems {
				row = append(row, gbps(r.run(fig10Scenario(s, size, n)).Gbps))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"Paper: MFLOW's advantage shrinks as flows grow (24% @5 flows, 11% @10, 5% @20 for 4KB).")
		tables = append(tables, t)
	}
	return tables
}

// Fig12 reproduces Fig. 12: per-core CPU load balance under 10 concurrent
// 64KB TCP flows — FALCON vs MFLOW standard deviation.
func (r *Runner) Fig12() *Table {
	t := &Table{ID: "fig12", Title: "CPU load balance, 10 flows x 64KB TCP on 10 kernel cores"}
	t.Columns = []string{"system", "kernel CPU total (%)", "stddev (pp)", "throughput (Gbps)"}
	for _, s := range []steering.System{steering.FalconDev, steering.MFlow} {
		res := r.run(fig10Scenario(s, 65536, 10))
		t.Rows = append(t.Rows, []string{
			s.String(),
			fmt.Sprintf("%.0f", res.KernelCPUTotal),
			fmt.Sprintf("%.1f", res.KernelCPUStddev),
			gbps(res.Gbps),
		})
		t.Notes = append(t.Notes, cpuNotes(s.String(), res)...)
	}
	t.Notes = append(t.Notes, "Paper: stddev of per-core utilization 20.5 (FALCON) vs 11.6 (MFLOW).")
	return t
}

// Fig11 reproduces Fig. 11: the web-serving benchmark (success operation
// rate, response time, delay time per operation type).
func (r *Runner) Fig11() []*Table {
	systems := appSystems
	results := map[steering.System]*apps.WebResult{}
	for _, s := range systems {
		results[s] = r.web(s)
	}
	ops := results[systems[0]].Ops

	succ := &Table{ID: "fig11a", Title: "Web serving: success operations/sec per op type"}
	resp := &Table{ID: "fig11b", Title: "Web serving: average response time (µs)"}
	delay := &Table{ID: "fig11c", Title: "Web serving: average delay time beyond target (µs)"}
	for _, t := range []*Table{succ, resp, delay} {
		t.Columns = []string{"operation"}
		for _, s := range systems {
			t.Columns = append(t.Columns, s.String())
		}
	}
	for i := range ops {
		rs := []string{ops[i].Name}
		rr := []string{ops[i].Name}
		rd := []string{ops[i].Name}
		for _, s := range systems {
			op := results[s].Ops[i]
			rs = append(rs, fmt.Sprintf("%.0f", op.SuccessPerSec))
			rr = append(rr, fmt.Sprintf("%.0f", float64(op.AvgResponse)/1000))
			rd = append(rd, fmt.Sprintf("%.0f", float64(op.AvgDelay)/1000))
		}
		succ.Rows = append(succ.Rows, rs)
		resp.Rows = append(resp.Rows, rr)
		delay.Rows = append(delay.Rows, rd)
	}
	succ.Notes = append(succ.Notes,
		fmt.Sprintf("Totals: vanilla=%.0f falcon=%.0f mflow=%.0f op/s (paper: MFLOW 2.3-7.5x vanilla, 1.5-3.6x FALCON)",
			results[steering.Vanilla].TotalSuccessPerSec,
			results[steering.FalconDev].TotalSuccessPerSec,
			results[steering.MFlow].TotalSuccessPerSec))
	resp.Notes = append(resp.Notes, "Paper: MFLOW cuts average response time 35-65% vs vanilla, 22-54% vs FALCON.")
	delay.Notes = append(delay.Notes, "Paper: MFLOW cuts average delay time up to 75% vs vanilla, 36-73% vs FALCON.")
	return []*Table{succ, resp, delay}
}

// Fig13 reproduces Fig. 13: the data-caching (memcached) benchmark's
// average and 99th-percentile latency for 1-10 clients.
func (r *Runner) Fig13() *Table {
	t := &Table{ID: "fig13", Title: "Data caching (memcached): request latency (avg / p99, µs)"}
	systems := appSystems
	t.Columns = []string{"clients"}
	for _, s := range systems {
		t.Columns = append(t.Columns, s.String())
	}
	for _, n := range []int{1, 5, 10} {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range systems {
			res := r.caching(s, n)
			row = append(row, fmt.Sprintf("%.0f/%.0f",
				float64(res.Avg)/1000, float64(res.P99)/1000))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Paper: MFLOW cuts p99 26% at 1 client; avg/p99 48%/47% at 10 clients; 22%/33% vs FALCON.")
	return t
}

// queueStats digs the NIC-ring and worst-backlog depth series out of a
// result's observability snapshot (zeros for a recording placeholder).
func queueStats(res *overlay.Result) (ringP99, ringMax int64, worst string, worstP99, worstMax int64) {
	worst = "-"
	// Iterate in sorted-name order: map order would make the worst-backlog
	// pick nondeterministic when two backlogs tie on both p99 and max.
	for _, name := range res.Obs.Names() {
		m := res.Obs[name]
		if !strings.HasPrefix(name, "queue_depth{queue=") {
			continue
		}
		q := strings.TrimSuffix(strings.TrimPrefix(name, "queue_depth{queue="), "}")
		switch {
		case strings.HasPrefix(q, "nic_ring"):
			if m.P99 > ringP99 {
				ringP99 = m.P99
			}
			if m.Max > ringMax {
				ringMax = m.Max
			}
		case strings.HasPrefix(q, "backlog:"):
			if m.P99 > worstP99 || (m.P99 == worstP99 && m.Max > worstMax) {
				worstP99, worstMax = m.P99, m.Max
				worst = strings.TrimPrefix(q, "backlog:")
			}
		}
	}
	return
}

// Queues reports sampled queue occupancy — NIC descriptor ring and the
// hottest softirq backlog — alongside throughput for every system at 64KB.
// This is the observability layer's view of the paper's §II argument: the
// serialized systems throttle with deep standing queues on one core, while
// MFLOW spreads shallower queues across the splitting cores.
func (r *Runner) Queues() *Table {
	t := &Table{ID: "queues", Title: "Sampled queue occupancy at 64KB (p99/max depth over the measured window)"}
	t.Columns = []string{"system", "proto", "Gbps", "ring p99/max", "hottest backlog", "backlog p99/max"}
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		for _, s := range steering.Systems {
			res := r.run(overlay.Scenario{System: s, Proto: proto, MsgSize: 65536})
			ringP99, ringMax, worst, wP99, wMax := queueStats(res)
			t.Rows = append(t.Rows, []string{
				s.String(), proto.String(), gbps(res.Gbps),
				fmt.Sprintf("%d/%d", ringP99, ringMax),
				worst,
				fmt.Sprintf("%d/%d", wP99, wMax),
			})
		}
	}
	t.Notes = append(t.Notes,
		"Depths are periodic simulated-time samples (obs queue-depth sampler); ring = NIC descriptor ring.")
	return t
}

// All regenerates every figure in paper order.
func (r *Runner) All() []*Table {
	var out []*Table
	out = append(out, r.Fig4()...)
	out = append(out, r.Fig7())
	out = append(out, r.Fig8()...)
	out = append(out, r.Fig9()...)
	out = append(out, r.Fig10()...)
	out = append(out, r.Fig11()...)
	out = append(out, r.Fig12())
	out = append(out, r.Fig13())
	out = append(out, r.Queues())
	out = append(out, r.Ablations()...)
	out = append(out, r.Extensions()...)
	return out
}
