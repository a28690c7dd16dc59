package main

import (
	"math"

	"mflow/internal/bench"
	"mflow/internal/overlay"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// runView is the part of one scenario run a paper claim reads.
type runView struct {
	gbps, p50us, p99us, kcpuStddev float64
}

// claimView indexes a rep's results for the claim table: overlay runs by
// scenario key, data-caching records by (system, clients). base builds the
// workload's single-flow 64 KB scenario for a system and protocol, so a
// selector names exactly the record the workload produced for it.
type claimView struct {
	runs    map[string]runView
	caching map[cachingSel]bench.AppRecord
	base    func(steering.System, skb.Proto) overlay.Scenario
}

type cachingSel struct {
	sys     string
	clients int
}

func (v claimView) run(sc overlay.Scenario) (runView, bool) {
	r, ok := v.runs[sc.Key()]
	return r, ok
}

func (v claimView) single(sys steering.System, proto skb.Proto) (runView, bool) {
	return v.run(v.base(sys, proto))
}

// multiFlow is the Fig. 10/12 shape: 10 flows on 10 kernel and 5 app cores.
func (v claimView) multiFlow(sys steering.System) (runView, bool) {
	sc := v.base(sys, skb.TCP)
	sc.Flows, sc.KernelCores, sc.AppCores = 10, 10, 5
	return v.run(sc)
}

// A claim is one number the paper reports, with the selector that reads
// the simulator's value for it. measure reports false when the workload
// did not run the scenarios the claim needs.
type claim struct {
	fig, what string
	paper     float64
	measure   func(claimView) (float64, bool)
}

// gbpsRatio is the throughput of system a over system b at 64 KB.
func gbpsRatio(a, b steering.System, proto skb.Proto) func(claimView) (float64, bool) {
	return func(v claimView) (float64, bool) {
		ra, okA := v.single(a, proto)
		rb, okB := v.single(b, proto)
		return ra.gbps / rb.gbps, okA && okB && rb.gbps > 0
	}
}

// overBestFalcon is MFLOW's throughput over the better FALCON variant.
func overBestFalcon(proto skb.Proto) func(claimView) (float64, bool) {
	return func(v claimView) (float64, bool) {
		m, okM := v.single(steering.MFlow, proto)
		d, okD := v.single(steering.FalconDev, proto)
		f, okF := v.single(steering.FalconFunc, proto)
		best := math.Max(d.gbps, f.gbps)
		return m.gbps / best, okM && okD && okF && best > 0
	}
}

func latencyRatio(p99 bool) func(claimView) (float64, bool) {
	return func(v claimView) (float64, bool) {
		m, okM := v.single(steering.MFlow, skb.TCP)
		b, okB := v.single(steering.Vanilla, skb.TCP)
		if p99 {
			return m.p99us / b.p99us, okM && okB && b.p99us > 0
		}
		return m.p50us / b.p50us, okM && okB && b.p50us > 0
	}
}

func kcpuStddev(sys steering.System) func(claimView) (float64, bool) {
	return func(v claimView) (float64, bool) {
		r, ok := v.multiFlow(sys)
		return r.kcpuStddev, ok
	}
}

func cachingRatio(clients int, p99 bool) func(claimView) (float64, bool) {
	return func(v claimView) (float64, bool) {
		m, okM := v.caching[cachingSel{steering.MFlow.String(), clients}]
		b, okB := v.caching[cachingSel{steering.Vanilla.String(), clients}]
		if p99 {
			return m.P99Us / b.P99Us, okM && okB && b.P99Us > 0
		}
		return m.AvgUs / b.AvgUs, okM && okB && b.AvgUs > 0
	}
}

// claims is the paper-fidelity table: every quantitative claim of the
// paper's Figs. 4, 8, 9, 12 and 13 that one scenario pair pins down
// (EXPERIMENTS.md, DESIGN.md §3). Fig. 11 is left out because the paper
// gives only a range for it.
var claims = []claim{
	{"Fig. 4", "vanilla/native TCP", 0.60, gbpsRatio(steering.Vanilla, steering.Native, skb.TCP)},
	{"Fig. 4", "vanilla/native UDP", 0.20, gbpsRatio(steering.Vanilla, steering.Native, skb.UDP)},
	{"Fig. 4", "RPS/vanilla TCP", 1.24, gbpsRatio(steering.RPS, steering.Vanilla, skb.TCP)},
	{"Fig. 4", "RPS/vanilla UDP", 1.06, gbpsRatio(steering.RPS, steering.Vanilla, skb.UDP)},
	{"Fig. 4", "FALCON-dev/vanilla UDP", 1.80, gbpsRatio(steering.FalconDev, steering.Vanilla, skb.UDP)},
	{"Fig. 4", "FALCON-func/RPS TCP", 1.20, gbpsRatio(steering.FalconFunc, steering.RPS, skb.TCP)},
	{"Fig. 8", "MFLOW/vanilla TCP", 1.81, gbpsRatio(steering.MFlow, steering.Vanilla, skb.TCP)},
	{"Fig. 8", "MFLOW/vanilla UDP", 2.39, gbpsRatio(steering.MFlow, steering.Vanilla, skb.UDP)},
	{"Fig. 8", "MFLOW/best FALCON TCP", 1.22, overBestFalcon(skb.TCP)},
	{"Fig. 8", "MFLOW/best FALCON UDP", 1.21, overBestFalcon(skb.UDP)},
	{"Fig. 8", "MFLOW/native TCP", 29.8 / 26.6, gbpsRatio(steering.MFlow, steering.Native, skb.TCP)},
	{"Fig. 9", "MFLOW/vanilla TCP p50", 0.54, latencyRatio(false)},
	{"Fig. 9", "MFLOW/vanilla TCP p99", 0.79, latencyRatio(true)},
	{"Fig. 12", "kernel-CPU stddev MFLOW (pp)", 11.6, kcpuStddev(steering.MFlow)},
	{"Fig. 12", "kernel-CPU stddev FALCON (pp)", 20.5, kcpuStddev(steering.FalconDev)},
	{"Fig. 13", "MFLOW/vanilla p99 @1 client", 0.74, cachingRatio(1, true)},
	{"Fig. 13", "MFLOW/vanilla avg @10 clients", 0.52, cachingRatio(10, false)},
	{"Fig. 13", "MFLOW/vanilla p99 @10 clients", 0.53, cachingRatio(10, true)},
}

// paperErrPct is the mean of |measured/paper - 1| over the claims the view
// resolves, in percent, and how many claims that is.
func paperErrPct(v claimView) (pct float64, resolved int) {
	for _, c := range claims {
		m, ok := c.measure(v)
		if !ok {
			continue
		}
		pct += math.Abs(m/c.paper - 1)
		resolved++
	}
	if resolved == 0 {
		return 0, 0
	}
	return 100 * pct / float64(resolved), resolved
}

// artifactView indexes a bench artifact for the claim table.
func artifactView(a *bench.Artifact, base func(steering.System, skb.Proto) overlay.Scenario) claimView {
	v := claimView{
		runs:    make(map[string]runView, len(a.Runs)),
		caching: map[cachingSel]bench.AppRecord{},
		base:    base,
	}
	for _, r := range a.Runs {
		v.runs[r.Key] = runView{gbps: r.Gbps, p50us: r.LatencyP50Us, p99us: r.LatencyP99Us, kcpuStddev: r.KernelCPUStddev}
	}
	for _, r := range a.Apps {
		if r.Kind == "caching" {
			v.caching[cachingSel{r.System, r.Clients}] = r
		}
	}
	return v
}

// resultView indexes overlay results for the claim table by the key of the
// scenario each was run from (a Result carries the defaulted scenario,
// whose key differs).
func resultView(scs []overlay.Scenario, results []*overlay.Result, base func(steering.System, skb.Proto) overlay.Scenario) claimView {
	v := claimView{runs: make(map[string]runView, len(results)), base: base}
	for i, res := range results {
		if res == nil {
			continue
		}
		rv := runView{gbps: res.Gbps, kcpuStddev: res.KernelCPUStddev}
		if res.Latency != nil && res.Latency.Count() > 0 {
			rv.p50us = float64(res.Latency.Median()) / 1000
			rv.p99us = float64(res.Latency.P99()) / 1000
		}
		v.runs[scs[i].Key()] = rv
	}
	return v
}
