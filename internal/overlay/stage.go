package overlay

import (
	"mflow/internal/causal"
	"mflow/internal/gro"
	"mflow/internal/metrics"
	"mflow/internal/netdev"
	"mflow/internal/overload"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/trace"
)

// stage is one softirq worker: a queue on a core that, per poll round,
// charges its pre-GRO devices per incoming skb, optionally coalesces with
// GRO, charges its post-GRO devices per resulting skb (applying their
// semantic actions, e.g. VxLAN decap), and hands each result downstream at
// its completion instant. A per-emission handoff cost models explicit
// pipeline transfers (FALCON) or steering (RPS).
type stage struct {
	name   string
	worker *sim.Worker[*skb.SKB]
	sched  *sim.Scheduler

	pre  []*netdev.Device
	gro  *gro.GRO
	post []*netdev.Device

	// each, if set, runs per incoming skb after the pre devices (used
	// for the split driver's completion-update batching).
	each func(*skb.SKB, *sim.Core)

	// handoff is charged on this stage's core per emitted skb.
	handoff sim.Duration

	// h is the owning host: its drop funnel closes and retires every skb
	// this stage rejects.
	h *host

	out func(*skb.SKB, sim.Time)

	// emits holds the poll round's emissions until their completion
	// instants: they come from the stage's one core, so they never
	// decrease and one lane carries them all.
	emits *sim.Lane[*skb.SKB]

	// aqm, when overload control configures the CoDel AQM, applies the
	// control law to each drained batch; aqmSojourn records every
	// measured queue sojourn (shared across the run's managed stages).
	aqm        *overload.CoDel
	aqmSojourn *metrics.Histogram

	// ringFed marks the stage whose queue is the NIC descriptor ring (a
	// probed run classifies its first wait as ring-wait, not softirq
	// queueing).
	ringFed bool

	// Observers, wired by host.armProbes (all nil/false in unprobed runs).
	// tracer records each emitted skb. latency accumulates
	// stage_latency{stage} (time since NIC arrival, weighted per wire
	// segment) for every emitted skb; gap records stage_gap{from,to}
	// (queueing delay since the previous stage's emission) at poll time;
	// obsOn gates that skb bookkeeping. prof receives critical-path marks
	// at every wait/exec boundary; nil costs one branch per device
	// execution.
	tracer  *trace.Tracer
	latency *metrics.Histogram
	gap     func(from string, v int64)
	obsOn   bool
	prof    *causal.Profiler
}

// newStage builds a stage on core. Cross-core feeders should leave wake as
// the backlog wake delay; the NIC overrides it for ring-fed stages.
func (h *host) newStage(name string, coreC *sim.Core, cap int, wake sim.Duration) *stage {
	st := &stage{name: name, sched: h.sched, h: h}
	st.worker = &sim.Worker[*skb.SKB]{
		Name:         "softirq",
		Core:         coreC,
		Sched:        h.sched,
		Budget:       sim.DefaultBudget,
		Cap:          cap,
		PollOverhead: h.sc.Costs.PollOverhead,
		WakeDelay:    wake,
	}
	st.worker.ProcessBatch = st.process
	st.emits = sim.NewLane(h.sched, st.emit)
	if h.inj != nil && h.sc.Faults.BacklogDrop > 0 {
		// Backlog admission loss (netif_rx-style). The NIC-fed first
		// stage swaps this for the ring gate in buildFlowRx.
		st.worker.Gate = func(*skb.SKB) bool { return !h.inj.DropBacklog() }
	}
	return st
}

func (st *stage) core() *sim.Core { return st.worker.Core }

// aqmFilter applies the CoDel control law to a drained batch: each skb's
// queue sojourn (dequeue minus QueuedAt) is measured, skbs the law discards
// drop before any device work is charged, and survivors' sojourns are
// recorded (the histogram is the delivered path's queueing delay).
func (st *stage) aqmFilter(batch []*skb.SKB) []*skb.SKB {
	now := st.sched.Now()
	kept := batch[:0]
	for _, s := range batch {
		var sojourn sim.Duration
		if s.QueuedAt > 0 {
			sojourn = now.Sub(s.QueuedAt)
		}
		if st.aqm.Drop(sojourn, now) {
			st.h.drop(s, st.name, "drop-backlog")
			continue
		}
		st.aqmSojourn.Record(int64(sojourn))
		kept = append(kept, s)
	}
	return kept
}

// process is the stage's poll-round body: phase 1 charges the pre devices
// per incoming skb, GRO coalesces, phase 2 charges the post devices and
// handoff per resulting skb and chains the emissions. With a profiler
// attached it also marks each skb's wait before its first execution here
// and every service/handoff interval.
func (st *stage) process(batch []*skb.SKB) {
	if st.aqm != nil {
		batch = st.aqmFilter(batch)
	}
	c := st.worker.Core
	p := st.prof
	if st.obsOn {
		now := st.sched.Now()
		for _, s := range batch {
			if s.LastStage != "" {
				st.gap(s.LastStage, int64(now.Sub(s.LastStageAt)))
			}
		}
	}
	for _, s := range batch {
		first := true
		for _, d := range st.pre {
			start, end := c.Exec(d.CostOf(s), d.Name)
			if p != nil {
				if first {
					first = false
					st.markWait(s, start)
				}
				p.Mark(s, causal.SegService, st.name, end)
			}
			d.Apply(s)
		}
		if st.each != nil {
			st.each(s, c)
		}
		if !first {
			// Phase-1 work done; the skb now sits in the poll batch. On a
			// GRO stage the gap until phase 2 is the coalescing hold.
			p.NoteBatched(s)
		}
	}
	if st.gro != nil {
		batch = st.gro.Coalesce(batch)
	}
	for _, s := range batch {
		end := st.sched.Now()
		first := true
		for _, d := range st.post {
			var start sim.Time
			start, end = c.Exec(d.CostOf(s), d.Name)
			if p != nil {
				if first {
					first = false
					st.markWait(s, start)
				}
				p.Mark(s, causal.SegService, st.name, end)
			}
			d.Apply(s)
		}
		if st.handoff > 0 {
			var start sim.Time
			start, end = c.Exec(st.handoff, "handoff")
			if p != nil {
				if first {
					st.markWait(s, start)
				}
				p.Mark(s, causal.SegHandoff, st.name, end)
			}
		}
		if len(st.post) == 0 && st.handoff == 0 {
			end = c.FreeAt()
			if p != nil {
				// No execution of its own in phase 2: everything up to
				// the emission instant is wait.
				st.markWait(s, end)
			}
		}
		st.tracer.Record(end, s.PktID, s.FlowID, s.Seq, s.Segs, st.name, c.Host, c.ID)
		st.latency.RecordN(int64(end.Sub(s.ArrivedAt)), uint64(s.Segs))
		if st.obsOn {
			s.LastStage, s.LastStageAt = st.name, end
		}
		st.emits.At(end, s)
	}
}

// emit hands an emitted skb downstream at its completion instant.
func (st *stage) emit(s *skb.SKB, now sim.Time) { st.out(s, now) }

// markWait classifies the gap before the stage's first execution for s
// (queue, gro-hold, ring-wait or wake handoff; see causal.MarkWait).
func (st *stage) markWait(s *skb.SKB, start sim.Time) {
	st.prof.MarkWait(s, st.name, start, st.ringFed, st.gro != nil, st.worker.WakeDelay)
}

// feed returns an enqueue function for wiring a previous stage's output
// into this stage. Skbs rejected at the queue (cap or gate) are dead — no
// retransmission below the socket layer — so they drop here.
func (st *stage) feed() func(*skb.SKB, sim.Time) {
	return func(s *skb.SKB, _ sim.Time) {
		if p := st.prof; p != nil && st.worker.Idle() {
			p.NoteIdleWake(s)
		}
		s.QueuedAt = st.sched.Now()
		if !st.worker.Enqueue(s) {
			st.h.drop(s, st.name, "drop-backlog")
		}
	}
}
