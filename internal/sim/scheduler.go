package sim

// Handler is a pre-allocated callback target for the scheduler's
// closure-free fast path. Hot paths that schedule one event per packet
// (softirq polls, per-skb stage handoffs, sender completions) keep a
// long-lived object implementing Handler and pass the per-event state
// through arg — typically an *skb.SKB, whose pointer rides the interface
// word without allocating. Handle receives the event's fire time, which for
// an event scheduled at t is exactly t (or the clamped "now" for events
// scheduled into the past).
type Handler interface {
	Handle(arg any, now Time)
}

// event is one pending entry in the heap (or the inline slot): its (at, seq)
// ordering key plus ref, the index of its dispatch payload in the
// scheduler's refs slab — or, with laneRef set, of the lane whose head it
// is. It holds no pointers, so the 24-byte records the heap sifts tens of
// millions of times per figure sweep are never scanned by the garbage
// collector and their copies take no write barriers.
type event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among events scheduled for the same instant
	ref uint32 // index into Scheduler.refs, or laneRef|index into Scheduler.lanes
}

// laneRef marks an event ref that names a lane rather than a slab entry.
const laneRef = 1 << 31

// evRef is an event's dispatch payload, kept out of the heap in the
// scheduler's slab. Closures scheduled through At ride the same shape via
// closureH (the func value travels in arg).
type evRef struct {
	h   Handler
	arg any
}

// closureH adapts At's closure path onto the handler dispatch: the func
// value rides in arg (pointer-shaped, so boxing it allocates nothing).
type closureH struct{}

func (closureH) Handle(arg any, _ Time) { arg.(func())() }

// before reports whether e fires strictly before o: earlier time, or FIFO
// scheduling order at the same instant.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// SchedStats are the scheduler's self-accounting counters: how many logical
// events it accepted, how much heap traffic the lanes and the inline slot
// saved, and how deep the heap got. Telemetry only — the counters never
// feed back into event ordering, timing, or any fingerprinted observable.
type SchedStats struct {
	// Scheduled counts logical events accepted (At/AtHandler and
	// Lane.At calls).
	Scheduled uint64
	// Coalesced counts lane entries that waited outside the heap: queued
	// behind their lane's head, they entered the pending set only when
	// their predecessor fired.
	Coalesced uint64
	// Inlined counts events dispatched from the inline slot, bypassing the
	// heap entirely.
	Inlined uint64
	// HeapPushes / HeapPops count heap operations (each O(log n)).
	HeapPushes uint64
	HeapPops   uint64
	// PeakHeap is the maximum heap depth observed.
	PeakHeap int
}

// HeapOps returns the total number of O(log n) heap operations performed.
func (st SchedStats) HeapOps() uint64 { return st.HeapPushes + st.HeapPops }

// Merge folds o into st: counters add, peaks take the max.
func (st *SchedStats) Merge(o SchedStats) {
	st.Scheduled += o.Scheduled
	st.Coalesced += o.Coalesced
	st.Inlined += o.Inlined
	st.HeapPushes += o.HeapPushes
	st.HeapPops += o.HeapPops
	if o.PeakHeap > st.PeakHeap {
		st.PeakHeap = o.PeakHeap
	}
}

// Scheduler is the discrete-event simulation driver. It owns the virtual
// clock, the pending-event heap and the run's random source. A Scheduler is
// single-threaded by design: one simulation run is one goroutine, which keeps
// the model deterministic and race-free; parallelism across experiments is
// achieved by running independent Schedulers.
//
// The pending set is an inlined 4-ary min-heap over a flat []event ordered
// by (at, seq), plus a one-event inline slot that holds the pending minimum
// when it is known at insertion time (the common same-instant delivery
// case), sparing both the push and the pop. Compared to container/heap's
// interface-based binary heap this boxes nothing (pushing and popping an
// event performs zero heap allocations once the slice has grown) and does
// ~half the comparisons per sift on typical queue depths, which matters
// because every simulated packet crosses the pending set several times.
// Handlers and args live in the refs slab, recycled through a LIFO free
// list, so the heap itself is pointer-free.
type Scheduler struct {
	now     Time
	seq     uint64
	events  []event
	stopped bool

	// refs is the dispatch-payload slab events index into; free stacks the
	// indices of vacant entries (zeroed, so the slab never retains a
	// handler, closure or skb past its event's dispatch).
	refs []evRef
	free []uint32

	// lanes are the scheduler's lanes, indexed by their events' refs: a
	// lane's events need no slab entry, since the lane holds the payload.
	lanes []firer

	// slot is the inline fast path: it may hold at most one event, and
	// only one that fires before everything in the heap (checked at
	// placement; dispatch re-checks against the then-current heap head, so
	// ordering is identical to a pure heap — see trySlot and RunUntil).
	slot     event
	slotFull bool

	// deferred counts lane entries queued behind their lane's head, so
	// Pending stays exact under lazy emission.
	deferred int

	// eager makes every lane entry its own heap event and disables the
	// inline slot: the one-event-per-entry reference behaviour.
	eager bool

	stats SchedStats

	// Rand is the run's deterministic random source.
	Rand *Rand
}

// NewScheduler returns a scheduler with its clock at zero and a random
// source derived from seed.
func NewScheduler(seed uint64) *Scheduler {
	return &Scheduler{Rand: NewRand(seed)}
}

// SetEager switches the scheduler to the eager reference behaviour: every
// Lane.At puts its own heap event and the inline slot is never used.
// Dispatch order, fire times and Pending are identical either way; only the
// heap traffic differs. It must be called before anything is scheduled.
func (s *Scheduler) SetEager(on bool) {
	if s.stats.Scheduled > 0 {
		panic("sim: SetEager after events were scheduled")
	}
	s.eager = on
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Stats returns the scheduler's self-accounting counters. HeapPushes and
// PeakHeap are completed here from the live heap state (see push for why
// neither is counted inline).
func (s *Scheduler) Stats() SchedStats {
	st := s.stats
	st.HeapPushes = st.HeapPops + uint64(len(s.events))
	if n := len(s.events); n > st.PeakHeap {
		st.PeakHeap = n
	}
	return st
}

// At schedules fn to run at absolute time t. Events scheduled for a time in
// the past run at the current instant, after already-pending events for that
// instant (time never goes backwards). Events at the same instant run in
// scheduling order.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.stats.Scheduled++
	e := event{at: t, seq: s.seq, ref: s.newRef(closureH{}, fn)}
	if !s.trySlot(&e) {
		s.push(e)
	}
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d Duration, fn func()) {
	s.At(s.now.Add(d), fn)
}

// AtHandler schedules h.Handle(arg, t) at absolute time t with the same
// ordering semantics as At, but without the closure: a call site that would
// otherwise capture per-event state allocates nothing when h is a long-lived
// object and arg a pointer.
func (s *Scheduler) AtHandler(t Time, h Handler, arg any) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.stats.Scheduled++
	e := event{at: t, seq: s.seq, ref: s.newRef(h, arg)}
	if !s.trySlot(&e) {
		s.push(e)
	}
}

// AfterHandler schedules h.Handle(arg, now+d) d after the current instant.
func (s *Scheduler) AfterHandler(d Duration, h Handler, arg any) {
	s.AtHandler(s.now.Add(d), h, arg)
}

// newRef stores an event's dispatch payload in the slab, reusing the most
// recently freed entry when there is one, and returns its index.
func (s *Scheduler) newRef(h Handler, arg any) uint32 {
	if n := len(s.free) - 1; n >= 0 {
		r := s.free[n]
		s.free = s.free[:n]
		s.refs[r] = evRef{h: h, arg: arg}
		return r
	}
	s.refs = append(s.refs, evRef{h: h, arg: arg})
	return uint32(len(s.refs) - 1)
}

// trySlot claims the inline slot for e if it provably fires before
// everything else currently pending (slot empty, and e before the heap
// minimum); the caller pushes *e to the heap when trySlot declines. When the
// slot is already held by a later-firing event, the two swap — e takes the
// slot and the displaced occupant is handed back through *e for the caller's
// push — so the slot tracks the pending minimum instead of being wedged by
// one far-future event. Either way the pending set is the same heap ∪ slot
// multiset, and dispatch always takes the minimum of slot and heap head by
// (at, seq), so ordering is identical to a pure heap — the slot is purely a
// heap-traffic bypass, never an ordering shortcut. trySlot takes e by
// pointer and push is within the inlining budget, so every schedule path
// constructs its event exactly once.
func (s *Scheduler) trySlot(e *event) bool {
	if s.eager {
		return false
	}
	if s.slotFull {
		if e.before(&s.slot) {
			s.slot, *e = *e, s.slot
		}
		return false
	}
	if len(s.events) > 0 && !e.before(&s.events[0]) {
		return false
	}
	s.slot = *e
	s.slotFull = true
	return true
}

// push appends e and sifts it up to its heap position. Deliberately free of
// bookkeeping so it stays within the inlining budget of the hot schedule
// paths: HeapPushes is derived in Stats from the pop count plus the pending
// length (every heaped event pops exactly once), and PeakHeap is tracked at
// pop entry (any maximal heap length is immediately followed by a pop or is
// the final length, also folded in by Stats).
func (s *Scheduler) push(e event) {
	s.events = append(s.events, e)
	h := s.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the earliest heap event. The vacated tail slot
// needs no clearing: events hold no pointers, so nothing is retained.
func (s *Scheduler) pop() event {
	s.stats.HeapPops++
	if n := len(s.events); n > s.stats.PeakHeap {
		s.stats.PeakHeap = n
	}
	h := s.events
	root := h[0]
	n := len(h) - 1
	e := h[n]
	s.events = h[:n]
	if n > 0 {
		// Sift the former tail down from the root.
		h = s.events
		i := 0
		for {
			c := i*4 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	return root
}

// Stop makes the current Run/RunUntil call return after the event being
// processed completes. Further events remain queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Run processes events until none remain or Stop is called. It returns the
// final simulated time.
func (s *Scheduler) Run() Time {
	return s.RunUntil(Time(int64(^uint64(0) >> 1)))
}

// RunUntil processes events with timestamps <= until, advancing the clock as
// it goes. When it returns, the clock reads `until` if events beyond the
// horizon remain, and otherwise parks where the last event ran: a drained
// (or stopped) scheduler never advances past its final event, so Run — which
// passes the maximum horizon — ends at the simulation's natural end time.
// A horizon already in the past is a no-op: time never goes backwards.
func (s *Scheduler) RunUntil(until Time) Time {
	s.stopped = false
	if until < s.now {
		return s.now
	}
	for (s.slotFull || len(s.events) > 0) && !s.stopped {
		// The next event is the minimum of the inline slot and the heap
		// head (both ordered by (at, seq)).
		useSlot := s.slotFull && (len(s.events) == 0 || s.slot.before(&s.events[0]))
		var e event
		if useSlot {
			if s.slot.at > until {
				s.now = until
				return s.now
			}
			e = s.slot
			s.slotFull = false
			s.stats.Inlined++
		} else {
			if s.events[0].at > until {
				s.now = until
				return s.now
			}
			e = s.pop()
		}
		s.now = e.at
		if e.ref&laneRef != 0 {
			s.lanes[e.ref&^laneRef].fire(s.now)
			continue
		}
		// Copy the payload out and free its slot first: the handler may
		// grow the slab or reuse the freed slot.
		r := &s.refs[e.ref]
		h, arg := r.h, r.arg
		*r = evRef{}
		s.free = append(s.free, e.ref)
		h.Handle(arg, s.now)
	}
	// Drained or stopped before the horizon: park the clock where the
	// last event ran.
	return s.now
}
