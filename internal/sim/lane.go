package sim

// Lane is a FIFO of pending deliveries to one callback, for emission sites
// whose fire times never decrease — the completion instants of one core's
// executions (Core.Exec end times are monotone, since the core runs its
// work FIFO). Entries wait by value in a ring, not as heap events: only the
// lane's head is in the scheduler's pending set, and when it fires its
// successor enters the pending set before the callback runs.
//
// Ordering is identical to scheduling every entry with AtHandler. At takes
// its seq from the scheduler exactly as AtHandler would, so each entry keeps
// the (at, seq) key it would have had as its own event. The entries behind
// the head have larger keys than the head (times non-decreasing, seqs
// increasing), so none of them can be the pending minimum while the head is
// pending, and materializing each one when its predecessor fires keeps the
// pending set's minimum exactly where a pure heap would have it.
//
// On an eager scheduler (SetEager) every At puts its own heap event and the
// lane pops its FIFO head when one fires: the one-event-per-entry reference
// the lazy path is tested against.
type Lane[T any] struct {
	s   *Scheduler
	fn  func(v T, now Time)
	ref uint32 // laneRef | the lane's index in s.lanes

	// ring holds the pending entries, oldest at ring[head&mask]; its
	// length is zero or a power of two.
	ring []laneEntry[T]
	head int
	n    int
	last Time
}

// laneEntry is one pending delivery: its ordering key and its value.
type laneEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// firer is a lane as the scheduler dispatches it: fire runs the lane's head,
// which is due at now.
type firer interface{ fire(now Time) }

// NewLane returns an empty lane on s delivering each entry to fn at its
// fire time. The scheduler keeps the lane for its lifetime.
func NewLane[T any](s *Scheduler, fn func(v T, now Time)) *Lane[T] {
	l := &Lane[T]{s: s, fn: fn, ref: laneRef | uint32(len(s.lanes))}
	s.lanes = append(s.lanes, l)
	return l
}

// At schedules fn(v, t). t must be no earlier than the current instant nor
// than the lane's previous entry; a decreasing time panics, because it would
// mean the lane is fed by something other than one core's completions.
func (l *Lane[T]) At(t Time, v T) {
	s := l.s
	if t < l.last || t < s.now {
		panic("sim: Lane.At time went backwards")
	}
	l.last = t
	s.seq++
	s.stats.Scheduled++
	if len(l.ring) == l.n {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEntry[T]{at: t, seq: s.seq, v: v}
	l.n++
	if l.n == 1 || s.eager {
		e := event{at: t, seq: s.seq, ref: l.ref}
		if !s.trySlot(&e) {
			s.push(e)
		}
		return
	}
	s.deferred++
	s.stats.Coalesced++
}

// grow doubles the ring, unwrapping the entries to the front.
func (l *Lane[T]) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]laneEntry[T], size)
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// fire runs when the lane's head comes due. The head leaves the ring and, on
// a lazy scheduler, its successor enters the pending set under its own
// (at, seq) before the callback runs — so anything the callback schedules
// orders after it exactly as it would against a heap holding every entry.
func (l *Lane[T]) fire(now Time) {
	mask := len(l.ring) - 1
	e := &l.ring[l.head]
	v := e.v
	*e = laneEntry[T]{}
	l.head = (l.head + 1) & mask
	l.n--
	if s := l.s; l.n > 0 && !s.eager {
		s.deferred--
		e := event{at: l.ring[l.head].at, seq: l.ring[l.head].seq, ref: l.ref}
		if !s.trySlot(&e) {
			s.push(e)
		}
	}
	l.fn(v, now)
}
