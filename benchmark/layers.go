package main

import (
	"bufio"
	"fmt"
	"strings"
	"time"

	"mflow/internal/bench"
	"mflow/internal/causal"
	"mflow/internal/overlay"
	"mflow/internal/sim"
)

// layerCounts sums what one rep's results say about each layer. Every
// field is deterministic for a seed, so two versions of the engine compare
// exactly on them.
type layerCounts struct {
	sched sim.SchedStats
	// runs counts the overlay runs the per-run sums below cover.
	runs                          int
	groFactor, kcpuBusy, kcpuStdd float64
	ringDrops, admDrops, aqmDrops uint64
	oooSKBs, retransmits, holes   uint64
	underlaySent, underlayDrops   uint64
	causal                        causalSplit
}

// causalSplit is the causal breakdown of delivered packets' latency by
// segment kind, summed over probed runs; pkts is the packets it covers.
type causalSplit struct {
	waits      [int(causal.SegOther) + 1]sim.Duration
	pkts       uint64
	violations uint64
}

func (c *causalSplit) add(res *overlay.Result, p *causal.Profiler) {
	for _, st := range res.Breakdown {
		c.waits[st.Kind] += st.Total
	}
	c.pkts += p.DeliveredPkts
	c.violations += p.Violations()
}

func (c *layerCounts) addResult(res *overlay.Result, prof *causal.Profiler) {
	c.sched.Merge(res.Sched)
	c.runs++
	c.groFactor += res.GROFactor
	c.kcpuBusy += res.KernelCPUTotal
	c.kcpuStdd += res.KernelCPUStddev
	c.ringDrops += res.DropsRing
	c.admDrops += res.DropsAdmission
	c.aqmDrops += res.DropsAQM
	c.oooSKBs += res.OOOSKBs
	c.retransmits += res.Retransmits
	c.holes += res.HolesReleased
	c.underlaySent += res.UnderlaySent
	c.underlayDrops += res.UnderlayDrops
	if prof != nil {
		c.causal.add(res, prof)
	}
}

// addRecord is addResult for a paper-all artifact record, which carries a
// subset of the result's counters (no overlay or underlay runs there).
func (c *layerCounts) addRecord(rec bench.RunRecord) {
	c.runs++
	c.groFactor += rec.GROFactor
	c.kcpuBusy += rec.KernelCPUTotal
	c.kcpuStdd += rec.KernelCPUStddev
	c.ringDrops += rec.DropsRing
	c.oooSKBs += rec.OOOSKBs
	c.retransmits += rec.Retransmits
	c.holes += rec.HolesReleased
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics turns a rep's counts into the per-layer count metrics.
func countMetrics(c layerCounts, segs uint64, add func(name, unit string, v float64)) {
	s := float64(segs)
	sched := float64(c.sched.Scheduled)
	add("sim.events_per_seg", "1/seg", ratio(sched, s))
	add("sim.heap_ops_per_seg", "1/seg", ratio(float64(c.sched.HeapOps()), s))
	add("sim.coalesced_frac", "ratio", ratio(float64(c.sched.Coalesced), sched))
	add("sim.inlined_frac", "ratio", ratio(float64(c.sched.Inlined), sched))
	add("sim.peak_heap", "count", float64(c.sched.PeakHeap))
	runs := float64(c.runs)
	add("path.gro_factor", "ratio", ratio(c.groFactor, runs))
	add("kcpu.busy_pct", "%", ratio(c.kcpuBusy, runs))
	add("kcpu.stddev_pp", "pp", ratio(c.kcpuStdd, runs))
	add("nic.ring_drops_per_kseg", "1/kseg", ratio(1000*float64(c.ringDrops), s))
	add("core.ooo_skbs_per_kseg", "1/kseg", ratio(1000*float64(c.oooSKBs), s))
	add("proto.retransmits_per_kseg", "1/kseg", ratio(1000*float64(c.retransmits), s))
	add("core.holes_released", "count", float64(c.holes))
	add("overload.adm_drops_per_kseg", "1/kseg", ratio(1000*float64(c.admDrops), s))
	add("overload.aqm_drops_per_kseg", "1/kseg", ratio(1000*float64(c.aqmDrops), s))
	add("fabric.underlay_drop_frac", "ratio", ratio(float64(c.underlayDrops), float64(c.underlaySent)))
	for k, total := range c.causal.waits {
		name := strings.ReplaceAll(causal.SegKind(k).String(), "-", "_")
		add("causal."+name+"_us", "sim_us", ratio(float64(total)/1000, float64(c.causal.pkts)))
	}
	add("causal.violations", "count", float64(c.causal.violations))
}

// hostLayers are the buckets CPU-profile self time is attributed to: the
// repository's packages (txpath folded into traffic, sim split into its
// scheduler, core/jitter and worker files) and three runtime buckets.
var hostLayers = []string{
	"sim_sched", "sim_core", "sim_worker", "overlay", "traffic", "skb", "packet",
	"gro", "netdev", "nic", "steering", "core", "proto", "fault", "overload",
	"fabric", "causal", "obs", "metrics", "apps", "bench", "harness",
	"runtime_gc", "runtime_malloc", "runtime_other",
}

// stackLayers are the receive path's device and protocol layers. Each is
// cheap on its own, so a traced run may catch none of its samples on some
// workload; their sum is reported as host.stack.
var stackLayers = []string{"gro", "netdev", "nic", "steering", "core", "proto"}

const mflowPrefix = "mflow/internal/"

// gcFrames and mallocFrames name the runtime functions whose time is the
// collector's and the allocator's. Walking a sample's runtime frames from
// the leaf, the first one that matches decides; a GC assist inside an
// allocation is therefore the collector's.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.sweepone", "runtime.(*sweepLocked).sweep",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.bulkBarrierPreWrite",
		"runtime.wbMove", "runtime.wbZero", "runtime._GC",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.newarray",
		"runtime.rawstring", "runtime.rawbyteslice", "runtime.(*mcache)",
		"runtime.(*mheap).alloc",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// layerOf attributes one CPU sample, its stack given leaf first, to a layer.
// A leaf in one of the repository's packages is that package's. Collector
// and allocator frames go to runtime_gc and runtime_malloc. Any other
// standard-library leaf (math, sort, maps, memmove, map access, ...) is
// charged to the nearest caller in the repository, and time with no such
// caller is runtime_other. The benchmark's own frames are "benchmark".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !isRuntime(fn) {
			break
		}
		if hasAnyPrefix(fn, gcFrames) {
			return "runtime_gc"
		}
		if hasAnyPrefix(fn, mallocFrames) {
			return "runtime_malloc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "benchmark"
		}
		if rest, ok := strings.CutPrefix(fn, mflowPrefix); ok {
			return mflowLayer(rest)
		}
	}
	return "runtime_other"
}

// mflowLayer maps a function inside mflow/internal/ ("sim.(*Core).adjust")
// to its layer.
func mflowLayer(fn string) string {
	pkg, member, _ := strings.Cut(fn, ".")
	switch pkg {
	case "txpath":
		return "traffic"
	case "sim":
		switch {
		case strings.HasPrefix(member, "(*Core)"), strings.HasPrefix(member, "(*coreRunEvt)"),
			strings.HasPrefix(member, "(*Rand)"), strings.HasPrefix(member, "NewCore"),
			strings.HasPrefix(member, "NewRand"), strings.HasPrefix(member, "rotl"):
			return "sim_core"
		case strings.HasPrefix(member, "(*Worker["), strings.HasPrefix(member, "(*workerPollH["),
			strings.HasPrefix(member, "(*workerThenH["), strings.HasPrefix(member, "NewWorker["):
			return "sim_worker"
		}
		return "sim_sched"
	}
	return pkg
}

// parseTraces reads `go tool pprof -traces` output and returns the CPU time
// attributed to each layer. Each sample block starts with a separator
// line, then the value and leaf function, then one caller per line.
func parseTraces(out string) (map[string]time.Duration, error) {
	byLayer := map[string]time.Duration{}
	var (
		value time.Duration
		stack []string
	)
	flush := func() {
		if len(stack) > 0 {
			byLayer[layerOf(stack)] += value
		}
		stack = stack[:0]
	}
	started := false
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		fn := strings.TrimSpace(line)
		if !started || fn == "" {
			continue
		}
		if len(stack) == 0 {
			v, rest, _ := strings.Cut(fn, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q: %w", line, err)
			}
			value, fn = d, strings.TrimSpace(rest)
		}
		stack = append(stack, strings.TrimSuffix(fn, " (inline)"))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !started {
		return nil, fmt.Errorf("pprof traces: no samples in output")
	}
	return byLayer, nil
}
