package overlay

import (
	mflow "mflow/internal/core"
	"mflow/internal/gro"
	"mflow/internal/netdev"
	"mflow/internal/nic"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// buildMFlowFlow wires flow f's receive pipeline with MFLOW enabled and
// returns the first stage (attached to the NIC queue). Three topologies:
//
//   - TCP full-path scaling (paper Fig. 8b left): core(base) runs only the
//     IRQ-splitting first half, dispatching raw driver requests; each
//     parallel branch allocates skbs on one core and runs GRO + the whole
//     overlay device chain on another (PipelinePairs); micro-flows merge
//     before the TCP layer, whose processing rides the delivery thread.
//
//   - TCP flow-splitting only (ablation): skb alloc + GRO stay serialized on
//     core(base); branches run the post-skb device chain.
//
//   - UDP single-device scaling (Fig. 8b right): core(base) runs the first
//     softirq and splits before the heavyweight VxLAN device; branches run
//     VxLAN (+ the rest, with late merge at the socket per the paper) on
//     separate cores.
func (h *host) buildMFlowFlow(f int, fp *flowPath) *stage {
	if h.sc.MFlow.AutoDetect {
		fp.detect = mflow.NewDetector()
		fp.detect.ThresholdBps = h.sc.MFlow.ElephantBps
	}
	if h.sc.Proto == skb.TCP {
		return h.buildMFlowTCP(f, fp)
	}
	return h.buildMFlowUDP(f, fp)
}

// armDetection wires the elephant detector into a flow's splitter and first
// stage: arrivals are observed at the first softirq, and the splitter's
// gate opens only while the flow classifies as an elephant.
func (h *host) armDetection(fp *flowPath, first *stage) {
	if fp.detect == nil {
		return
	}
	fp.split.Gate = func() bool { return fp.detect.IsElephant(fp.id) }
	if fp.reasm != nil {
		fp.reasm.TagRouting = true
		fp.reasm.RouteOf = fp.split.Route
	}
	prev := first.each
	first.each = func(s *skb.SKB, c *sim.Core) {
		fp.detect.Observe(s.FlowID, s.WireLen, h.sched.Now())
		if prev != nil {
			prev(s, c)
		}
	}
}

func (h *host) buildMFlowTCP(f int, fp *flowPath) *stage {
	sc := h.sc
	cfg := sc.Costs
	m := sc.MFlow
	base := h.baseFor(f, true)
	app := h.acore(f)

	// Transport tail in the delivery-thread context: reassembly (or the
	// ablation's kernel ofo queue) feeds TCP bookkeeping, then the socket
	// whose copy cost already includes TCP processing.
	tcpTail := h.tailFor(fp, app)
	var arrive func(*skb.SKB, sim.Time)
	if m.PerPacketReorder || m.NoReassembly {
		arrive = tcpTail
	} else {
		arrive = h.reassembler(fp, app, false, func(s *skb.SKB) { tcpTail(s, 0) })
	}

	fp.split = &mflow.Splitter{BatchSize: m.BatchSize, IPICost: cfg.IPI}
	comp := &nic.CompletionBatcher{Every: cfg.CompletionEvery, UpdateCost: cfg.CompletionUpdate}

	// rot staggers which core serves a flow's first branch so that many
	// concurrent small flows (which may never fill one micro-flow batch)
	// still spread across the splitting cores.
	rot := func(i int) int { return (i + f) % m.SplitCores }

	if m.FullPath {
		// Parallel branches.
		for i := 0; i < m.SplitCores; i++ {
			var branchHead *stage
			if m.PipelinePairs {
				rest := h.newStage("mflow-rest", h.kcore(base+1+m.SplitCores+rot(i)), 0, cfg.BacklogWake)
				rest.pre = append(rest.pre, dev("gro", cfg.GROOverlay))
				rest.gro = gro.New()
				h.gros = append(h.gros, rest.gro)
				rest.post = h.overlayChainDevices(fp, true)
				rest.out = arrive
				h.stages = append(h.stages, rest)

				alloc := h.newStage("mflow-alloc", h.kcore(base+1+rot(i)), 0, cfg.BacklogWake)
				alloc.pre = append(alloc.pre, dev("alloc", cfg.Alloc))
				alloc.each = func(s *skb.SKB, c *sim.Core) { comp.Completed(c) }
				alloc.out = rest.feed()
				h.stages = append(h.stages, alloc)
				branchHead = alloc
			} else {
				br := h.newStage("mflow-branch", h.kcore(base+1+rot(i)), 0, cfg.BacklogWake)
				br.pre = append(br.pre, dev("alloc", cfg.Alloc), dev("gro", cfg.GROOverlay))
				br.gro = gro.New()
				h.gros = append(h.gros, br.gro)
				br.post = h.overlayChainDevices(fp, true)
				br.each = func(s *skb.SKB, c *sim.Core) { comp.Completed(c) }
				br.out = arrive
				h.stages = append(h.stages, br)
				branchHead = br
			}
			fp.split.Targets = append(fp.split.Targets, branchHead.worker)
		}
		// IRQ-splitting first half: locate and dispatch raw requests.
		disp := h.newStage("mflow-disp", h.kcore(base), 0, cfg.BacklogWake)
		disp.pre = append(disp.pre, dev("dispatch", netdev.Cost{PerSeg: cfg.IRQDispatch}))
		fp.split.Core = disp.core()
		disp.out = func(s *skb.SKB, _ sim.Time) { fp.split.Dispatch(s) }
		h.stages = append(h.stages, disp)
		h.armDetection(fp, disp)
		return disp
	}

	// Flow-splitting only: the first softirq (alloc+GRO+outer) stays on
	// core(base); branches run the post-skb chain.
	for i := 0; i < m.SplitCores; i++ {
		br := h.newStage("mflow-branch", h.kcore(base+1+rot(i)), 0, cfg.BacklogWake)
		br.post = h.overlayChainDevices(fp, false)
		br.out = arrive
		h.stages = append(h.stages, br)
		fp.split.Targets = append(fp.split.Targets, br.worker)
	}
	s1 := h.newStage("mflow-s1", h.kcore(base), 0, cfg.BacklogWake)
	s1.pre = append(s1.pre, dev("alloc", cfg.Alloc), dev("gro", cfg.GROOverlay))
	s1.gro = gro.New()
	h.gros = append(h.gros, s1.gro)
	s1.post = append(s1.post, dev("ip", cfg.OuterIPUDP))
	fp.split.Core = s1.core()
	fp.split.DispatchCost = cfg.SplitDispatch
	s1.out = func(s *skb.SKB, _ sim.Time) { fp.split.Dispatch(s) }
	h.stages = append(h.stages, s1)
	h.armDetection(fp, s1)
	return s1
}

// overlayChainDevices returns the overlay device chain down to the
// socket-queue insert, excluding transport processing (MFLOW TCP runs TCP
// in the delivery thread). withOuter includes the outer IP/UDP receive
// (false when a previous stage already parsed it).
func (h *host) overlayChainDevices(fp *flowPath, withOuter bool) []*netdev.Device {
	cfg := h.sc.Costs
	var devs []*netdev.Device
	if withOuter {
		devs = append(devs, dev("ip", cfg.OuterIPUDP))
	}
	devs = append(devs,
		fp.vxDevice(cfg),
		dev("bridge", cfg.Bridge),
		dev("veth", cfg.Veth),
		dev("ip", cfg.InnerIP),
		dev("sock", cfg.SockEnq))
	return devs
}

func (h *host) buildMFlowUDP(f int, fp *flowPath) *stage {
	sc := h.sc
	cfg := sc.Costs
	m := sc.MFlow
	base := h.baseFor(f, true)
	app := h.acore(f)

	udpTail := h.tailFor(fp, app)
	var arrive func(*skb.SKB, sim.Time)
	var splitDevs []*netdev.Device
	if m.NoReassembly || m.PerPacketReorder {
		// No order restoration: datagrams reach the app as they finish.
		arrive = udpTail
		splitDevs = h.udpSplitChain(fp)
	} else if m.LateMerge {
		// The paper's UDP configuration: branches run the whole
		// remaining path; micro-flows merge right before user-space
		// delivery, reusing the backlog queues.
		arrive = h.reassembler(fp, app, true, func(s *skb.SKB) { udpTail(s, 0) })
		splitDevs = h.udpSplitChain(fp)
	} else {
		// Early merge (ablation): branches run only VxLAN; merge right
		// after it, then the rest of the path on one further core.
		rest := h.newStage("mflow-rest", h.kcore(base+1+m.SplitCores), udpBacklogCap, cfg.BacklogWake)
		rest.post = []*netdev.Device{
			dev("bridge", cfg.Bridge),
			dev("veth", cfg.Veth),
			dev("ip", cfg.InnerIP),
			dev("udp", cfg.UDPRx),
			dev("sock", cfg.SockEnq),
		}
		rest.out = udpTail
		h.stages = append(h.stages, rest)
		arrive = h.reassembler(fp, rest.core(), true, func(s *skb.SKB) { rest.worker.Enqueue(s) })
		splitDevs = []*netdev.Device{fp.vxDevice(cfg)}
	}

	fp.split = &mflow.Splitter{BatchSize: m.BatchSize, IPICost: cfg.IPI, DispatchCost: cfg.SplitDispatch}
	rot := func(i int) int { return (i + f) % m.SplitCores }
	// Split the backlog budget across branches so MFLOW buffers no more
	// than the single-queue systems do (bounded queuing delay).
	brCap := udpBacklogCap / m.SplitCores
	if brCap < 256 {
		brCap = 256
	}
	for i := 0; i < m.SplitCores; i++ {
		br := h.newStage("mflow-branch", h.kcore(base+1+rot(i)), brCap, cfg.BacklogWake)
		br.post = splitDevs
		br.out = arrive
		h.stages = append(h.stages, br)
		fp.split.Targets = append(fp.split.Targets, br.worker)
	}

	// First softirq: alloc + (failed) GRO lookup + outer IP/UDP, then the
	// flow-splitting function in place of the stage transition.
	s1 := h.newStage("mflow-s1", h.kcore(base), udpBacklogCap, cfg.BacklogWake)
	s1.pre = append(s1.pre,
		dev("alloc", cfg.Alloc),
		dev("gro", cfg.GROLookupUDP))
	s1.post = append(s1.post, dev("ip", cfg.OuterIPUDP))
	fp.split.Core = s1.core()
	s1.out = func(s *skb.SKB, _ sim.Time) { fp.split.Dispatch(s) }
	h.stages = append(h.stages, s1)
	h.armDetection(fp, s1)
	return s1
}

// udpSplitChain is the branch device list when branches run the whole
// remaining UDP path.
func (h *host) udpSplitChain(fp *flowPath) []*netdev.Device {
	cfg := h.sc.Costs
	return []*netdev.Device{
		fp.vxDevice(cfg),
		dev("bridge", cfg.Bridge),
		dev("veth", cfg.Veth),
		dev("ip", cfg.InnerIP),
		dev("udp", cfg.UDPRx),
		dev("sock", cfg.SockEnq),
	}
}

// reassembler builds flow fp's micro-flow reassembler, merging on core and
// delivering in sequence order to deliver, and returns the arrival hook the
// splitting branches feed. allowGaps lets UDP merges skip holes.
func (h *host) reassembler(fp *flowPath, core *sim.Core, allowGaps bool, deliver func(*skb.SKB)) func(*skb.SKB, sim.Time) {
	m, cfg := h.sc.MFlow, h.sc.Costs
	fp.reasm = mflow.NewReassembler(m.SplitCores, m.BatchSize, deliver)
	fp.reasm.AllowGaps = allowGaps
	fp.reasm.Core = core
	fp.reasm.SwitchCost = cfg.MergeSwitch
	fp.reasm.PerSKB = cfg.MergePerSKB
	h.armFaultRecovery(fp)
	return func(s *skb.SKB, _ sim.Time) {
		if err := fp.reasm.Arrive(s); err != nil {
			fp.recordArriveErr(err)
		}
	}
}
