package core

import (
	"fmt"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Reassembler restores a split flow's original segment order using the
// paper's batch-based mechanism (Fig. 6c): one buffer queue per splitting
// core and a global merging counter holding the micro-flow ID currently
// being merged. Because every micro-flow travels one core's FIFO path, each
// buffer queue receives its micro-flows in order; the merger therefore only
// ever inspects queue heads — it drains the current micro-flow's queue until
// the head carries a different ID (or the batch's segment coverage
// completes), then rotates to the next queue. Cost-wise this is a per-batch
// operation: a SwitchCost per micro-flow rotation plus a small PerSKB move,
// in contrast to the kernel's per-packet out-of-order queue.
type Reassembler struct {
	// BatchSize is the splitter's micro-flow batch size (segments).
	BatchSize int
	// Deliver receives skbs in restored order (e.g. the TCP layer for
	// early merging, or the socket receive queue for late merging).
	Deliver func(*skb.SKB)
	// Core is the merging thread's CPU (the paper adds merging to the
	// existing delivery thread, tcp_recvmsg/udp_recvmsg).
	Core *sim.Core
	// SwitchCost is charged per micro-flow rotation; PerSKB per skb
	// moved from a buffer queue to the next stage.
	SwitchCost sim.Duration
	PerSKB     sim.Duration
	// AllowGaps tolerates missing segments inside a micro-flow
	// (connectionless flows can lose datagrams to queue overflow, and
	// fault-injected TCP paths see holes that retransmission later
	// fills out of band).
	AllowGaps bool
	// Strict panics on contiguity violations (stale segments, unexpected
	// gaps) instead of recording them — the lossless-run invariant check
	// used by tests. Without Strict a violation outside AllowGaps mode is
	// recorded in Errors/FirstErr and the merger degrades to the
	// AllowGaps behavior, so a single fault cannot kill a bench run.
	Strict bool
	// GapTimeout, when set together with Sched, bounds how long the
	// merger stalls on a hole: if no segment is delivered for a full
	// GapTimeout while skbs sit buffered, the lowest-sequence head is
	// force-released and the counter jumps past the hole (recorded in
	// HolesReleased). Zero disables the timer (the lossless default).
	GapTimeout sim.Duration
	// Sched drives the gap-release timer in simulated time.
	Sched *sim.Scheduler
	// TagRouting files arrivals by the skb's Branch tag instead of the
	// round-robin formula — required when a Splitter gate (elephant
	// detection) routes micro-flows off-formula.
	TagRouting bool
	// RouteOf, when set with TagRouting, lets the merger ask the
	// splitter where a micro-flow was routed, distinguishing "still in
	// flight" from "lost upstream" (see Splitter.Route).
	RouteOf func(mf uint64) (int, RouteState)
	// Budget, when positive, hard-bounds parked skbs: after each arrival
	// pumps, buffered heads are force-released (the gap-timeout path, out
	// of band) until occupancy returns to the budget — graceful degradation
	// instead of unbounded growth. Releases are counted in BudgetReleased
	// on top of HolesReleased.
	Budget int

	// OOOSegments counts wire segments that arrived at the merge point
	// while an earlier segment was still outstanding — the paper's
	// Fig. 7 metric. OOOSKBs counts the skbs carrying them.
	OOOSegments uint64
	OOOSKBs     uint64
	// DeliveredSegments counts segments passed downstream.
	DeliveredSegments uint64
	// Switches counts micro-flow rotations performed.
	Switches uint64
	// StaleSKBs counts skbs delivered behind the merging counter after
	// loss made their batch look complete (gap-tolerant paths only).
	StaleSKBs uint64
	// HolesReleased counts gap-timeout force-releases.
	HolesReleased uint64
	// BudgetReleased counts force-releases caused by the Budget bound.
	BudgetReleased uint64
	// Errors counts contiguity violations recorded in non-Strict mode;
	// FirstErr keeps the first one for diagnostics.
	Errors   uint64
	FirstErr error
	// BufferedPeak is the maximum total skbs parked across all queues.
	BufferedPeak int

	// OnDeliver, when set, observes every delivery with the id of the
	// packet whose arrival made it possible (the blame for the delivered
	// skb's reorder-wait; 0 when a gap-timeout or flush released it, not
	// an arrival). Observation only; nil in unprobed runs.
	OnDeliver func(head *skb.SKB, blamePkt uint64)
	// OnHoleReleased, when set, observes each gap-timeout force-release
	// (the anomaly flight-recorder trigger).
	OnHoleReleased func(head *skb.SKB)

	// blamePkt is the arrival currently pumping the merger (0 outside
	// Arrive — gap-timer and flush deliveries have no arrival to blame).
	blamePkt uint64

	queues      [][]*skb.SKB
	counter     uint64 // micro-flow currently merged (1-based)
	expectedSeq uint64 // next segment sequence to deliver
	arrivedMax  uint64 // highest EndSeq seen at the merge point
	buffered    int
	gapArmed    bool
	gapMark     uint64 // DeliveredSegments when the gap timer was armed
	gapFrontier uint64 // arrivedMax when the gap timer was armed
	gapH        gapTimerH
}

// deliver passes head downstream, first reporting it to the OnDeliver
// observer together with the arrival that unblocked it.
func (r *Reassembler) deliver(head *skb.SKB) {
	if r.OnDeliver != nil {
		r.OnDeliver(head, r.blamePkt)
	}
	r.Deliver(head)
}

// gapTimerH fires the reassembler's stall check through the scheduler's
// closure-free path (the timer re-arms on every buffered arrival, so a
// per-arm closure would be a steady allocation in lossy runs).
type gapTimerH struct{ r *Reassembler }

// Handle implements sim.Handler.
func (h gapTimerH) Handle(any, sim.Time) { h.r.onGapTimer() }

// NewReassembler returns a reassembler for a flow split across numQueues
// splitting cores with the given batch size.
func NewReassembler(numQueues, batchSize int, deliver func(*skb.SKB)) *Reassembler {
	if numQueues <= 0 {
		numQueues = 1
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &Reassembler{
		BatchSize: batchSize,
		Deliver:   deliver,
		queues:    make([][]*skb.SKB, numQueues),
		counter:   1,
	}
}

// Buffered returns the number of skbs currently parked awaiting their turn.
func (r *Reassembler) Buffered() int { return r.buffered }

// Arrive accepts an skb from a splitting core's processing path and pumps
// the merger. skbs must carry the MicroFlow stamp from the Splitter.
func (r *Reassembler) Arrive(s *skb.SKB) error {
	if s.MicroFlow == 0 {
		return fmt.Errorf("reassembler: %v has no micro-flow stamp", s)
	}
	if s.Seq < r.arrivedMax {
		// A segment already arrived with a higher sequence: this
		// arrival is an inversion (the classic reordering metric).
		r.OOOSKBs++
		r.OOOSegments += uint64(s.Segs)
	}
	if end := s.EndSeq(); end > r.arrivedMax {
		r.arrivedMax = end
	}
	qi := int((s.MicroFlow - 1) % uint64(len(r.queues)))
	if r.TagRouting {
		qi = s.Branch % len(r.queues)
	}
	r.queues[qi] = append(r.queues[qi], s)
	r.buffered++
	if r.buffered > r.BufferedPeak {
		r.BufferedPeak = r.buffered
	}
	r.blamePkt = s.PktID
	r.pump()
	r.blamePkt = 0
	for r.Budget > 0 && r.buffered > r.Budget {
		r.BudgetReleased++
		r.releaseHole()
	}
	if r.buffered > 0 {
		r.armGapTimer()
	}
	return nil
}

// violation records a contiguity violation: panic under Strict (the
// lossless-run invariant check), otherwise count it and let the caller
// degrade to the gap-tolerant behavior.
func (r *Reassembler) violation(format string, args ...any) {
	if r.Strict {
		panic(fmt.Sprintf(format, args...))
	}
	r.Errors++
	if r.FirstErr == nil {
		r.FirstErr = fmt.Errorf(format, args...)
	}
}

// armGapTimer schedules a stall check GapTimeout from now (one pending
// event at most). When the timer finds no segment was delivered for a full
// period while skbs sat buffered, it force-releases the hole.
func (r *Reassembler) armGapTimer() {
	if r.gapArmed || r.GapTimeout <= 0 || r.Sched == nil {
		return
	}
	r.gapArmed = true
	r.gapMark = r.DeliveredSegments
	r.gapFrontier = r.arrivedMax
	if r.gapH.r == nil {
		r.gapH.r = r
	}
	r.Sched.AfterHandler(r.GapTimeout, r.gapH, nil)
}

func (r *Reassembler) onGapTimer() {
	r.gapArmed = false
	if r.buffered == 0 {
		return
	}
	if r.DeliveredSegments != r.gapMark {
		// The merger made progress since arming; keep watching.
		r.armGapTimer()
		return
	}
	// Stalled for a full period. Every buffered head below the arrival
	// frontier recorded at arming is either a late retransmission the
	// merger already skipped past, or data blocked on a segment that
	// predates everything received since — pipeline skew is far smaller
	// than the timeout, so that segment is lost, not delayed. Release all
	// of them in one pass (a serial one-hole-per-timeout release cannot
	// keep up with steady loss); heads at or past the frontier are younger
	// and get their own full period.
	limit := r.gapFrontier
	for r.buffered > 0 {
		head := r.lowestHead()
		if head == nil || head.Seq >= limit {
			break
		}
		r.releaseHole()
	}
	if r.buffered > 0 {
		r.armGapTimer()
	}
}

// lowestHead returns the lowest-sequence buffered queue head, or nil.
func (r *Reassembler) lowestHead() *skb.SKB {
	var best *skb.SKB
	for _, q := range r.queues {
		if len(q) == 0 {
			continue
		}
		if best == nil || q[0].Seq < best.Seq {
			best = q[0]
		}
	}
	return best
}

// releaseHole delivers the lowest-sequence buffered head out of band and
// jumps the merging counter past the hole that stalled it, then pumps.
// The segments lost in the hole stay lost (UDP) or return later as
// retransmissions, which the stale path delivers.
func (r *Reassembler) releaseHole() {
	best := -1
	for i, q := range r.queues {
		if len(q) == 0 {
			continue
		}
		if best == -1 || q[0].Seq < r.queues[best][0].Seq {
			best = i
		}
	}
	if best == -1 {
		return
	}
	head := r.queues[best][0]
	r.queues[best] = r.queues[best][1:]
	r.buffered--
	r.HolesReleased++
	if head.MicroFlow > r.counter {
		r.counter = head.MicroFlow
		r.Switches++
	}
	if end := head.EndSeq(); end > r.expectedSeq {
		r.expectedSeq = end
	}
	r.DeliveredSegments += uint64(head.Segs)
	if r.Core != nil && r.PerSKB > 0 {
		r.Core.Exec(r.PerSKB, "mflow-merge")
	}
	if r.OnHoleReleased != nil {
		r.OnHoleReleased(head)
	}
	r.deliver(head)
	for r.expectedSeq >= r.counter*uint64(r.BatchSize) {
		r.advance()
	}
	r.pump()
}

// pump drains whole micro-flows in counter order while queue heads allow.
func (r *Reassembler) pump() {
	if r.TagRouting {
		r.pumpTagged()
		return
	}
	for {
		qi := int((r.counter - 1) % uint64(len(r.queues)))
		q := r.queues[qi]
		if len(q) == 0 {
			return // current micro-flow still in flight on its core
		}
		head := q[0]
		if head.MicroFlow > r.counter {
			// The queue is FIFO per core, so a later micro-flow at the
			// head means the current one ended short (final partial
			// batch or datagram loss): rotate.
			r.advance()
			continue
		}
		if head.MicroFlow < r.counter {
			// A micro-flow the merger already rotated past (loss made an
			// earlier batch look complete, or a retransmission arrived
			// long after its batch): deliver it immediately rather than
			// stalling the stream.
			if !r.AllowGaps {
				r.violation("reassembler: stale %v behind counter %d", head, r.counter)
			}
			r.StaleSKBs++
			r.queues[qi] = q[1:]
			r.buffered--
			r.DeliveredSegments += uint64(head.Segs)
			if r.Core != nil && r.PerSKB > 0 {
				r.Core.Exec(r.PerSKB, "mflow-merge")
			}
			r.deliver(head)
			continue
		}
		if head.Seq != r.expectedSeq {
			if !r.AllowGaps {
				// Within a micro-flow the core's FIFO preserves order; a
				// gap here means segment loss, which a lossless TCP path
				// never produces.
				r.violation("reassembler: head %v but expected seq %d", head, r.expectedSeq)
			}
			// Loss upstream: skip over the hole (forward only).
			if head.Seq > r.expectedSeq {
				r.expectedSeq = head.Seq
			}
		}
		r.queues[qi] = q[1:]
		r.buffered--
		r.expectedSeq = head.EndSeq()
		r.DeliveredSegments += uint64(head.Segs)
		if r.Core != nil && r.PerSKB > 0 {
			r.Core.Exec(r.PerSKB, "mflow-merge")
		}
		r.deliver(head)
		// Advance over every batch boundary the delivery crossed (a
		// GRO super-packet can straddle boundaries when one core
		// serves adjacent micro-flows).
		for r.expectedSeq >= r.counter*uint64(r.BatchSize) {
			r.advance()
		}
	}
}

// pumpTagged is the merge loop for tag-routed arrivals, where the counter's
// micro-flow may live on any queue (a Splitter gate routes mice
// off-formula). The per-branch FIFO argument still holds: while the
// counter's micro-flow is in flight on its branch, that branch's buffer
// queue can only hold earlier micro-flows; so if every non-empty queue head
// is ahead of the counter, the counter's micro-flow is complete and the
// merger rotates.
func (r *Reassembler) pumpTagged() {
	for {
		progressed := false
		// Drain any stale heads (micro-flows rotated past under loss).
		for i := range r.queues {
			for len(r.queues[i]) > 0 && r.queues[i][0].MicroFlow < r.counter {
				if !r.AllowGaps {
					r.violation("reassembler: stale %v behind counter %d", r.queues[i][0], r.counter)
				}
				head := r.queues[i][0]
				r.queues[i] = r.queues[i][1:]
				r.buffered--
				r.StaleSKBs++
				r.DeliveredSegments += uint64(head.Segs)
				if r.Core != nil && r.PerSKB > 0 {
					r.Core.Exec(r.PerSKB, "mflow-merge")
				}
				r.deliver(head)
				progressed = true
			}
		}
		// Locate the queue carrying the counter's micro-flow.
		cur := -1
		anyEmpty := false
		for i, q := range r.queues {
			if len(q) == 0 {
				anyEmpty = true
				continue
			}
			if q[0].MicroFlow == r.counter {
				cur = i
				break
			}
		}
		if cur == -1 {
			if r.RouteOf != nil {
				tgt, state := r.RouteOf(r.counter)
				switch state {
				case RouteFuture:
					return // not dispatched yet
				case RouteExpired:
					r.advance() // ancient and absent: lost
					continue
				default:
					if len(r.queues[tgt%len(r.queues)]) == 0 {
						return // in flight on its branch
					}
					r.advance() // its branch moved past it: lost
					continue
				}
			}
			if anyEmpty {
				if progressed {
					continue
				}
				return // the counter's micro-flow may still be in flight
			}
			r.advance() // every head is ahead: the micro-flow is complete
			continue
		}
		head := r.queues[cur][0]
		if head.Seq != r.expectedSeq {
			if !r.AllowGaps {
				r.violation("reassembler: head %v but expected seq %d", head, r.expectedSeq)
			}
			if head.Seq > r.expectedSeq {
				r.expectedSeq = head.Seq
			}
		}
		r.queues[cur] = r.queues[cur][1:]
		r.buffered--
		r.expectedSeq = head.EndSeq()
		r.DeliveredSegments += uint64(head.Segs)
		if r.Core != nil && r.PerSKB > 0 {
			r.Core.Exec(r.PerSKB, "mflow-merge")
		}
		r.deliver(head)
		for r.expectedSeq >= r.counter*uint64(r.BatchSize) {
			r.advance()
		}
	}
}

func (r *Reassembler) advance() {
	r.counter++
	r.Switches++
	if r.Core != nil && r.SwitchCost > 0 {
		r.Core.Exec(r.SwitchCost, "mflow-merge")
	}
}
