package overlay

import (
	"math"
	"reflect"
	"strings"

	"mflow/internal/metrics"
	"mflow/internal/netdev"
	"mflow/internal/obs"
	"mflow/internal/sim"
)

// Run executes a scenario: build the topology, warm it up, measure, and
// report. Runs are deterministic for a fixed scenario (seed included).
func Run(sc Scenario) *Result {
	return RunProbed(sc, Probes{})
}

// RunProbed runs a scenario with causal probes attached. Probes observe
// every packet's critical path without perturbing the run: for any scenario,
// RunProbed(sc, pr) and Run(sc) produce identical measured results (the
// probed-vs-unprobed fingerprint test pins this).
func RunProbed(sc Scenario, pr Probes) *Result {
	return run(sc, pr, runOpts{})
}

// run builds a scenario's topology on a fresh runEnv and executes it.
func run(sc Scenario, pr Probes, opt runOpts) *Result {
	sc = sc.withDefaults()
	env := newRunEnv(sc, opt)
	if sc.Fabric.Enabled() {
		return runFabric(sc, pr, env)
	}
	return buildHost(sc, pr, env).run()
}

// combine sets every field of c to op(c's, o's): the field-wise add and
// sub the window accounting needs. Reflection is fine here — it runs
// only at window boundaries.
func (c *Counters) combine(o *Counters, op func(a, b uint64) uint64) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if f := cv.Field(i); f.CanSet() {
			f.SetUint(op(f.Uint(), ov.Field(i).Uint()))
		}
	}
	c.msgs = op(c.msgs, o.msgs)
}

// publish sets reg's pfx+name counter for every obs-tagged field whose
// group keep accepts.
func (c Counters) publish(reg *obs.Registry, pfx string, keep func(group string) bool) {
	cv, ct := reflect.ValueOf(c), reflect.TypeOf(c)
	for i := 0; i < ct.NumField(); i++ {
		tag, ok := ct.Field(i).Tag.Lookup("obs")
		if !ok {
			continue
		}
		if name, group, _ := strings.Cut(tag, ","); keep(group) {
			reg.Counter(pfx + name).Set(cv.Field(i).Uint())
		}
	}
}

// countersAll sums every host's counters, folding in the underlay's when a
// fabric is present.
func countersAll(hosts []*host, fs *fabState) Counters {
	var c Counters
	add := func(a, b uint64) uint64 { return a + b }
	for _, h := range hosts {
		hc := h.counters()
		c.combine(&hc, add)
	}
	if fs != nil {
		c.UnderlaySent = fs.un.Sent
		c.UnderlayDelivered = fs.un.Delivered
		c.UnderlayDrops = fs.un.Drops
		c.UnderlayFloodCopies = fs.un.FloodCopies
	}
	return c
}

// counters reads the host's running totals: the single reader behind both
// the window deltas and the obs registry (syncObs).
func (h *host) counters() Counters {
	var c Counters
	for _, fp := range h.flows {
		c.DeliveredBytes += fp.sock.Bytes
		c.msgs += fp.sock.Msgs
		c.DeliveredSegments += fp.sock.Packets
		c.DropsSock += fp.sock.Dropped()
		if fp.tcpRx != nil {
			c.TCPOFOSegments += fp.tcpRx.OOOArrivals
			c.TCPDupSegments += fp.tcpRx.DupSegments
			c.OFOPruned += fp.tcpRx.OFOPruned
			// TCP's in-order contract is measured at the socket: this
			// must stay zero even under fault injection.
			c.DeliveredOutOfOrder += fp.sock.OOODelivered
		}
		if fp.tcpTx != nil {
			c.Retransmits += fp.tcpTx.Retransmits
			c.RTOTimeouts += fp.tcpTx.RTOTimeouts
			c.FastRetransmits += fp.tcpTx.FastRetransmits
		}
		if fp.reasm != nil {
			c.OOOSegments += fp.reasm.OOOSegments
			c.OOOSKBs += fp.reasm.OOOSKBs
			c.ReassemblySwitches += fp.reasm.Switches
			c.StaleReleased += fp.reasm.StaleSKBs
			c.HolesReleased += fp.reasm.HolesReleased
			c.ReasmBudgetReleased += fp.reasm.BudgetReleased
			c.ReassemblyErrors += fp.reasm.Errors
			if fp.udpRx != nil {
				c.DeliveredOutOfOrder += fp.udpRx.OOOArrivals
			}
		} else if fp.udpRx != nil {
			c.OOOSegments += fp.udpRx.OOOArrivals
			c.OOOSKBs += fp.udpRx.OOOArrivals
			c.DeliveredOutOfOrder += fp.udpRx.OOOArrivals
		}
		c.ReassemblyErrors += fp.arriveErrs
	}
	c.DropsRing = h.nic.Dropped
	c.OfferedFrames = h.nic.Offered
	c.AcceptedFrames = h.nic.Received
	c.DropsAdmission = h.nic.AdmissionDropped
	for _, st := range h.stages {
		c.DropsBacklog += st.worker.Dropped
	}
	if h.inj != nil {
		c.FaultsInjected = h.inj.Total()
		c.FaultDrops = h.inj.Drops()
	}
	if ov := h.ov; ov != nil {
		c.DropsAQM = ov.aqmDrops()
		c.OverloadGated = ov.gated
		c.PollModeEntered = ov.pollEntered
		c.PollModeExited = ov.pollExited
		c.WatchdogResteers = ov.resteers
		c.WatchdogResteeredSKBs = ov.resteeredSKBs
		c.DegradeCollapses = ov.collapses
		c.DegradeRestores = ov.restores
	}
	return c
}

// run measures a single prebuilt host (tests drive this directly after
// poking at the topology).
func (h *host) run() *Result {
	return runHosts(h.sc, h.sched, []*host{h}, nil)
}

// runHosts executes the measurement protocol over one or more fully built
// hosts sharing sched: warm up, snapshot, measure, diff. Single-host runs
// pass themselves as a one-element slice with a nil fabric; fabric runs
// pass every host plus the cross-host state. sc is the run-wide scenario
// (for fabric runs the global one, with the total flow count).
func runHosts(sc Scenario, sched *sim.Scheduler, hosts []*host, fs *fabState) *Result {
	// Queue-depth sampling runs through warmup and measurement alike; the
	// warmup-boundary snapshot below separates the windows.
	sc.Obs.StartSampler(sched, 0)

	var allCores []*sim.Core
	for _, h := range hosts {
		allCores = append(allCores, h.cores...)
	}

	// Warmup: let windows fill and queues reach steady state.
	sched.RunUntil(sim.Time(sc.Warmup))
	busy0, tags0 := metrics.CaptureBusy(allCores)
	snap0 := countersAll(hosts, fs)
	inFlight0 := 0
	if fs != nil {
		inFlight0 = fs.un.InFlight()
	}
	for _, h := range hosts {
		h.syncObs()
	}
	if fs != nil {
		fs.syncObs(sc)
	}
	obs0 := sc.Obs.Snapshot()
	for _, h := range hosts {
		for _, fp := range h.flows {
			fp.sock.Latency.Reset()
		}
		if h.ov != nil {
			// The AQM sojourn distribution covers the measured window
			// only, like the latency histograms.
			h.ov.sojourn.Reset()
		}
	}
	// Like the latency histograms, causal aggregates cover the measured
	// window only; in-flight attribution records survive the reset. The
	// profiler is shared run-wide, so one reset covers every host.
	hosts[0].prof.ResetStats()
	start := sched.Now()

	// Measurement window.
	end := sim.Time(sc.Warmup + sc.Measure)
	sched.RunUntil(end)
	snap1 := countersAll(hosts, fs)
	inFlight1 := 0
	if fs != nil {
		inFlight1 = fs.un.InFlight()
	}
	cpu := metrics.SnapshotCPU(allCores, busy0, tags0, start, end)

	for _, h := range hosts {
		for _, fp := range h.flows {
			for _, stop := range fp.stops {
				stop()
			}
		}
	}

	res := &Result{
		Scenario: sc,
		Latency:  metrics.NewHistogram(),
		CPU:      cpu,
		Sched:    sched.Stats(),
		Counters: snap1,
	}
	res.combine(&snap0, func(a, b uint64) uint64 { return a - b }) // window deltas
	window := end.Sub(start).Seconds()
	res.Gbps = float64(res.DeliveredBytes) * 8 / window / 1e9
	res.MsgPerSec = float64(res.msgs) / window
	for _, h := range hosts {
		for _, fp := range h.flows {
			res.Latency.Merge(fp.sock.Latency)
			res.WireErrors += fp.sock.VerifyErrors
			if fp.vx != nil {
				res.WireErrors += fp.vx.Errors
			}
			if res.ReassemblyErr == nil && fp.reasm != nil {
				res.ReassemblyErr = fp.reasm.FirstErr
			}
			if res.ReassemblyErr == nil {
				res.ReassemblyErr = fp.arriveErr
			}
		}
	}
	for _, h := range hosts {
		if h.ov == nil {
			continue
		}
		if v := int64(h.ov.recoveryMax); v > res.WatchdogRecoveryMaxNs {
			res.WatchdogRecoveryMaxNs = v
		}
		res.MemPeakBytes += h.ov.acct.PeakBytes
		if p := h.ov.sojourn.P99(); p > res.AQMSojournP99 {
			res.AQMSojournP99 = p
		}
	}
	if fs != nil {
		res.UnderlayInFlightStart = inFlight0
		res.UnderlayInFlightEnd = inFlight1
		// FDB counters are run totals, not window deltas: flood-then-learn
		// plays out during warmup and would vanish from a delta.
		res.FDBFloods, res.FDBLearned, res.FDBAged = fs.fdbTotals()
	}

	// Kernel-core balance (Fig. 12's metric): mean/stddev of per-core
	// utilization percentages across the kernel pool (every host's pool in
	// a fabric run — each host contributes its own kernel-core slice).
	perHost := sc.AppCores + sc.KernelCores
	var kutil []float64
	for i := range hosts {
		for _, s := range cpu[i*perHost+sc.AppCores : (i+1)*perHost] {
			kutil = append(kutil, s.Total*100)
		}
	}
	_, res.KernelCPUStddev = metrics.MeanStddev(kutil)
	for _, u := range kutil {
		res.KernelCPUTotal += u
	}

	// Achieved GRO merge factor across engines.
	var segs, skbs uint64
	for _, h := range hosts {
		for _, g := range h.gros {
			segs += g.SegsIn
			skbs += g.SkbsOut
		}
	}
	if skbs > 0 {
		res.GROFactor = float64(segs) / float64(skbs)
	} else {
		res.GROFactor = 1
	}
	if math.IsNaN(res.Gbps) {
		res.Gbps = 0
	}
	res.Breakdown = hosts[0].prof.Breakdown()
	if sc.Obs != nil {
		sc.Obs.StopSampler()
		for _, h := range hosts {
			h.syncObs()
		}
		if fs != nil {
			fs.syncObs(sc)
		}
		res.Obs = sc.Obs.Snapshot().Diff(obs0)
	}
	return res
}

// syncObs mirrors the externally accumulated monotonic stats — every
// obs-tagged Counters field, plus the registry-only NIC IRQ, memory-account,
// per-stage and per-device totals — into the scenario's registry. It runs at
// both window boundaries so Snapshot.Diff yields correct per-window deltas.
func (h *host) syncObs() {
	reg := h.sc.Obs
	if reg == nil {
		return
	}
	// pfx is empty on a single host; fabric hosts prefix their Set-based
	// counters ("h0:nic_received") so N hosts sharing one registry don't
	// overwrite each other. Record-based histograms aggregate safely and
	// stay unprefixed.
	pfx := h.obsPfx
	// The three NIC drop paths stay distinct: nic_dropped is descriptor-ring
	// overrun, nic_admission_dropped the overload memory budget's rejections
	// (before the ring), and aqm_dropped the CoDel discards at backlog and
	// splitting queues. nic_offered counts every frame presented, so
	// offered == received + dropped + admission_dropped always holds.
	h.counters().publish(reg, pfx, func(group string) bool {
		switch group {
		case "fault":
			return h.inj != nil
		case "overload":
			return h.ov != nil
		}
		return group == ""
	})
	reg.Counter(pfx + "nic_irqs").Set(h.nic.IRQs)
	if ov := h.ov; ov != nil {
		reg.Counter(pfx + "mem_charged").Set(ov.acct.Charged)
		reg.Counter(pfx + "mem_released").Set(ov.acct.Released)
	}

	// Per-stage backlog totals, aggregated across same-named stages
	// (parallel branches, multiple flows).
	enq := map[string]uint64{}
	drop := map[string]uint64{}
	polls := map[string]uint64{}
	seen := map[*netdev.Device]bool{}
	devSegs := map[string]uint64{}
	devSKBs := map[string]uint64{}
	devBytes := map[string]uint64{}
	for _, st := range h.stages {
		enq[st.name] += st.worker.Enqueued
		drop[st.name] += st.worker.Dropped
		polls[st.name] += st.worker.PollRounds
		for _, d := range append(append([]*netdev.Device{}, st.pre...), st.post...) {
			if seen[d] {
				continue
			}
			seen[d] = true
			devSegs[d.Name] += d.Segs
			devSKBs[d.Name] += d.SKBs
			devBytes[d.Name] += d.Bytes
		}
	}
	for name, v := range enq {
		reg.Counter(pfx+"backlog_enqueued", "stage", name).Set(v)
	}
	for name, v := range drop {
		reg.Counter(pfx+"backlog_dropped", "stage", name).Set(v)
	}
	for name, v := range polls {
		reg.Counter(pfx+"poll_rounds", "stage", name).Set(v)
	}
	for name, v := range devSegs {
		reg.Counter(pfx+"device_segs", "device", name).Set(v)
	}
	for name, v := range devSKBs {
		reg.Counter(pfx+"device_skbs", "device", name).Set(v)
	}
	for name, v := range devBytes {
		reg.Counter(pfx+"device_bytes", "device", name).Set(v)
	}
}
