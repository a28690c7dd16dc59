package overlay

import (
	mflow "mflow/internal/core"
	"mflow/internal/fault"
	"mflow/internal/metrics"
	"mflow/internal/overload"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// ovState is a run's overload-control manager (nil unless Scenario.Overload
// is enabled): the global skb memory account, the per-queue CoDel AQMs, the
// livelock polling-mode controller, the reassembler degradation hysteresis
// and the stall watchdog. Everything runs off a periodic sim-time tick, so
// managed runs stay fully deterministic.
type ovState struct {
	h    *host
	cfg  overload.Config // normalized
	acct *overload.Accountant

	// sojourn aggregates every AQM-observed queue sojourn across the
	// run's managed stages; aqms lists the per-stage control laws.
	sojourn *metrics.Histogram
	aqms    []*overload.CoDel

	// pressure is the memory account's current level; gated counts
	// enqueues the critical-pressure admission gate refused.
	pressure int
	gated    uint64

	// nicCores are the cores serving NIC descriptor rings; lastBusy holds
	// their BusyTotal at the previous tick for occupancy sampling.
	nicCores []*sim.Core
	lastBusy []sim.Duration
	polling  bool
	// pollEntered / pollExited count livelock-mitigation transitions.
	pollEntered uint64
	pollExited  uint64

	// flows are the managed split flows (degradation + watchdog targets).
	flows []*ovFlow

	resteers      uint64
	resteeredSKBs uint64
	collapses     uint64
	restores      uint64
	recoveryMax   sim.Duration
}

// ovFlow tracks one split flow's watchdog state: per-branch, when the
// branch's core was first seen making no forward progress (0 = healthy).
type ovFlow struct {
	fp         *flowPath
	stallSince []sim.Time
}

// newOvState builds the manager from an enabled config. The accountant is
// always created (with zero budgets it admits everything and reports zero
// pressure), so release hooks never need a nil check of their own.
func newOvState(h *host, cfg overload.Config) *ovState {
	cfg = cfg.Normalized()
	return &ovState{
		h:       h,
		cfg:     cfg,
		acct:    overload.NewAccountant(cfg),
		sojourn: metrics.NewHistogram(),
	}
}

// Handle implements sim.Handler: the manager is its own tick event.
func (ov *ovState) Handle(any, sim.Time) { ov.tick() }

// armOverload wires the manager into the fully built topology. Called after
// armProbes so the pressure gates chain onto any fault-injection gates.
func (h *host) armOverload() {
	if h.ov == nil {
		return
	}
	ov := h.ov
	cfg := ov.cfg

	// (1) Memory accounting: charge at NIC admission, reject over budget.
	if cfg.MemBytes > 0 || cfg.MemSKBs > 0 {
		h.nic.Admit = ov.acct.Admit
	}
	// (3) Livelock regime: interrupt-per-frame delivery.
	h.nic.PerFrameIRQ = cfg.IRQPerFrame

	// (2) AQM + pressure gate on every backlog/splitting queue. Ring-fed
	// stages are excluded — the descriptor ring is the NIC's own admission
	// point — but their cores are the occupancy-sampling set.
	seenCore := map[*sim.Core]bool{}
	for _, st := range h.stages {
		if st.ringFed {
			if c := st.core(); !seenCore[c] {
				seenCore[c] = true
				ov.nicCores = append(ov.nicCores, c)
			}
			continue
		}
		if cfg.CoDelTarget > 0 {
			st.aqm = &overload.CoDel{Target: cfg.CoDelTarget, Interval: cfg.CoDelInterval}
			st.aqmSojourn = ov.sojourn
			ov.aqms = append(ov.aqms, st.aqm)
		}
		prev := st.worker.Gate
		w := st.worker
		st.worker.Gate = func(s *skb.SKB) bool {
			if prev != nil && !prev(s) {
				return false
			}
			// Critical pressure closes the queue to standing-backlog growth
			// only: packets already in the stack keep draining toward the
			// socket (which is what releases their memory charge), exactly
			// like enqueue_to_backlog shedding input while delivery
			// continues. Refusing everything would deadlock — ring
			// occupancy alone can pin the account at its budget.
			if ov.pressure >= overload.PressureCritical && w.Len() >= ov.cfg.MinBudget {
				ov.gated++
				return false
			}
			return true
		}
	}
	ov.lastBusy = make([]sim.Duration, len(ov.nicCores))

	// (4)+(5) Degradation and watchdog need route truth: memoized routes,
	// tag-filed reassembly, and gap tolerance (a re-steered micro-flow's
	// stragglers deliver stale and the transport re-orders downstream).
	for _, fp := range h.flows {
		if fp.split != nil && fp.reasm != nil &&
			(cfg.ReasmBudget > 0 || cfg.WatchdogStall > 0) {
			fp.split.TrackRoutes = true
			fp.reasm.TagRouting = true
			fp.reasm.RouteOf = fp.split.Route
			fp.reasm.AllowGaps = true
			if fp.reasm.GapTimeout <= 0 {
				fp.reasm.GapTimeout = fault.DefaultGapTimeout
				fp.reasm.Sched = h.sched
			}
			if cfg.ReasmBudget > 0 {
				// The hard force-release frontier sits at 2× the collapse
				// threshold: degradation reacts first, the release is the
				// backstop.
				fp.reasm.Budget = 2 * cfg.ReasmBudget
			}
			ov.flows = append(ov.flows, &ovFlow{
				fp:         fp,
				stallSince: make([]sim.Time, len(fp.split.Targets)),
			})
		}
		if fp.tcpRx != nil && cfg.OFOBudget > 0 &&
			(fp.tcpRx.OFOCap == 0 || fp.tcpRx.OFOCap > cfg.OFOBudget) {
			fp.tcpRx.OFOCap = cfg.OFOBudget
		}
	}

	h.sched.AfterHandler(cfg.Tick, ov, nil)
}

// tick runs the manager's sampling pass and re-arms itself.
func (ov *ovState) tick() {
	now := ov.h.sched.Now()
	ov.sampleOccupancy(now)
	ov.applyPressure()
	ov.checkDegrade()
	ov.watchdog(now)
	ov.h.sched.AfterHandler(ov.cfg.Tick, ov, nil)
}

// sampleOccupancy measures each NIC-serving core's busy fraction over the
// last tick window and flips polling mode with wide hysteresis: mask IRQs
// when occupancy crosses the threshold, unmask below half of it. The
// measured fraction is newly *booked* exec time, which reads near zero
// while a core drains work booked during an earlier storm — so leaving
// polling mode additionally requires every sampled core's booked horizon
// to have caught up with the present, or a single IRQ burst's backlog
// would flap the mode every other tick while polls starve behind it.
func (ov *ovState) sampleOccupancy(now sim.Time) {
	if !ov.cfg.Polling || len(ov.nicCores) == 0 {
		return
	}
	window := float64(ov.cfg.Tick)
	maxOcc := 0.0
	backlogged := false
	for i, c := range ov.nicCores {
		busy := c.BusyTotal()
		if occ := float64(busy-ov.lastBusy[i]) / window; occ > maxOcc {
			maxOcc = occ
		}
		ov.lastBusy[i] = busy
		if c.FreeAt() > now {
			backlogged = true
		}
	}
	switch {
	case !ov.polling && maxOcc >= ov.cfg.SoftirqThreshold:
		ov.polling = true
		ov.pollEntered++
		ov.h.nic.MaskIRQs(true)
	case ov.polling && maxOcc < ov.cfg.SoftirqThreshold/2 && !backlogged:
		ov.polling = false
		ov.pollExited++
		ov.h.nic.MaskIRQs(false)
	}
}

// applyPressure shrinks every stage's NAPI budget as the memory account
// fills (tcp_mem shape): half budget at moderate pressure, the configured
// floor at critical (where the backlog admission gates also close).
func (ov *ovState) applyPressure() {
	p := ov.acct.Pressure()
	if p == ov.pressure {
		return
	}
	ov.pressure = p
	budget := sim.DefaultBudget
	switch p {
	case overload.PressureModerate:
		budget = sim.DefaultBudget / 2
	case overload.PressureCritical:
		budget = ov.cfg.MinBudget
	}
	for _, st := range ov.h.stages {
		st.worker.Budget = budget
	}
}

// checkDegrade applies the reassembler's graceful-degradation hysteresis:
// buffering over the budget collapses the flow's splitting degree to 1
// (new micro-flows pass through branch 0 ≈ RPS); falling below half the
// budget restores parallelism.
func (ov *ovState) checkDegrade() {
	if ov.cfg.ReasmBudget <= 0 {
		return
	}
	for _, of := range ov.flows {
		r, sp := of.fp.reasm, of.fp.split
		switch {
		case !sp.Collapsed && r.Buffered() > ov.cfg.ReasmBudget:
			sp.Collapsed = true
			ov.collapses++
		case sp.Collapsed && r.Buffered() < ov.cfg.ReasmBudget/2:
			sp.Collapsed = false
			ov.restores++
		}
	}
}

// watchdog detects splitting branches whose core is booked further than
// WatchdogStall into the future (fault-injected stalls, pathological
// queueing) and re-steers their pending micro-flows to the healthiest other
// branch, recording the stall→recovery interval.
func (ov *ovState) watchdog(now sim.Time) {
	if ov.cfg.WatchdogStall <= 0 {
		return
	}
	for _, of := range ov.flows {
		sp := of.fp.split
		for i, w := range sp.Targets {
			if w.Core.FreeAt().Sub(now) <= ov.cfg.WatchdogStall {
				if of.stallSince[i] != 0 {
					if rec := now.Sub(of.stallSince[i]); rec > ov.recoveryMax {
						ov.recoveryMax = rec
					}
					of.stallSince[i] = 0
				}
				continue
			}
			if of.stallSince[i] == 0 {
				of.stallSince[i] = now
			}
			if w.Len() == 0 {
				continue
			}
			to := ov.healthiest(sp, i)
			if to == i {
				continue
			}
			batch := w.StealQueue()
			if len(batch) == 0 {
				continue
			}
			ov.resteers++
			tgt := sp.Targets[to]
			for _, s := range batch {
				s.Branch = to
				if s.MicroFlow != 0 {
					// Future segments of the same micro-flow must follow,
					// and the reassembler must look for it on the new
					// branch.
					sp.Override(s.MicroFlow, to)
				}
				s.QueuedAt = now
				if !tgt.Enqueue(s) {
					ov.h.drop(s, "watchdog", "")
					continue
				}
				ov.resteeredSKBs++
			}
		}
	}
}

// healthiest returns the branch (≠ avoid) whose core frees up soonest;
// ties break toward the lowest index, keeping the choice deterministic.
func (ov *ovState) healthiest(sp *mflow.Splitter, avoid int) int {
	best := avoid
	var bestFree sim.Time
	for i, w := range sp.Targets {
		if i == avoid {
			continue
		}
		if free := w.Core.FreeAt(); best == avoid || free < bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// aqmDrops sums the CoDel discards across all managed queues.
func (ov *ovState) aqmDrops() uint64 {
	var n uint64
	for _, a := range ov.aqms {
		n += a.Drops
	}
	return n
}
