package sim

import (
	"fmt"
	"testing"
)

// logH records every dispatch as (id, fire time), both as a Handler (arg
// int) and as a lane callback (fire).
type logH struct {
	ids   []int
	times []Time
}

func (h *logH) Handle(arg any, now Time) {
	id, ok := arg.(int)
	if !ok {
		id = -1
	}
	h.fire(id, now)
}

func (h *logH) fire(id int, now Time) {
	h.ids = append(h.ids, id)
	h.times = append(h.times, now)
}

// newSched returns a scheduler in the given mode.
func newSched(eager bool) *Scheduler {
	s := NewScheduler(1)
	s.SetEager(eager)
	return s
}

// laneAt feeds l (id, at) pairs.
func laneAt(l *Lane[int], pairs ...int) {
	for i := 0; i+1 < len(pairs); i += 2 {
		l.At(Time(pairs[i+1]), pairs[i])
	}
}

// slabLeak describes how a drained scheduler's refs slab falls short of
// being wholly free — every slot on the free list exactly once, zeroed —
// or returns "" when it is.
func slabLeak(s *Scheduler) string {
	if p := s.Pending(); p != 0 {
		return fmt.Sprintf("Pending() = %d on a drained scheduler", p)
	}
	if len(s.free) != len(s.refs) {
		return fmt.Sprintf("%d of %d slab slots on the free list", len(s.free), len(s.refs))
	}
	seen := make([]bool, len(s.refs))
	for _, r := range s.free {
		if int(r) >= len(seen) || seen[r] {
			return fmt.Sprintf("free list %v is not a permutation of the slab", s.free)
		}
		seen[r] = true
		if s.refs[r] != (evRef{}) {
			return fmt.Sprintf("free slot %d retains %+v", r, s.refs[r])
		}
	}
	return ""
}

// laneScript drives one scheduler through a fixed mixed workload — single
// events, a lane (including same-instant entries), a second lane fed from
// inside a handler, and a partial-horizon RunUntil — and returns the
// dispatch log, the mid-horizon Pending and the final clock. It fails t if
// the drained scheduler's slab leaks a slot.
func laneScript(t *testing.T, eager bool) (h *logH, pend int, now Time) {
	s := newSched(eager)
	h = &logH{}
	l, l2 := NewLane(s, h.fire), NewLane(s, h.fire)
	s.AtHandler(10, h, 1)
	laneAt(l, 2, 10, 3, 12, 4, 12, 5, 20)
	s.AtHandler(12, h, 6) // same instant as entries 3,4; scheduled later, fires after
	s.At(11, func() {
		// Fed from inside the horizon: entries landing between pending
		// entries of the first lane.
		laneAt(l2, 7, 11, 8, 15)
	})
	s.RunUntil(14)
	pend = s.Pending()
	now = s.RunUntil(100)
	if leak := slabLeak(s); leak != "" {
		t.Errorf("eager=%v: %s", eager, leak)
	}
	return h, pend, now
}

// TestLaneMatchesEager pins the lanes' core claim: lazy lane emission
// dispatches in exactly the order and at exactly the clock readings of the
// eager one-event-per-entry reference.
func TestLaneMatchesEager(t *testing.T) {
	lazy, lazyPend, lazyNow := laneScript(t, false)
	eager, eagerPend, eagerNow := laneScript(t, true)
	if fmt.Sprint(lazy) != fmt.Sprint(eager) {
		t.Fatalf("dispatch differs: lazy %v eager %v", lazy, eager)
	}
	if lazyNow != eagerNow {
		t.Fatalf("final clock differs: lazy %d eager %d", lazyNow, eagerNow)
	}
	if lazyPend != eagerPend {
		t.Fatalf("mid-horizon Pending differs: lazy %d eager %d", lazyPend, eagerPend)
	}
	// And the order itself is the documented one: (at, seq) total order
	// with FIFO among same-instant events, lane entries in At order.
	if want := []int{1, 2, 7, 3, 4, 6, 8, 5}; fmt.Sprint(lazy.ids) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", lazy.ids, want)
	}
}

// TestLaneFIFOAtSameInstant verifies same-instant entries fire in At order,
// interleaved with same-instant AtHandler events by scheduling order.
func TestLaneFIFOAtSameInstant(t *testing.T) {
	for _, eager := range []bool{false, true} {
		s := newSched(eager)
		h := &logH{}
		l := NewLane(s, h.fire)
		for i := 0; i < 12; i++ {
			if i%3 == 2 {
				s.AtHandler(50, h, i)
			} else {
				l.At(50, i)
			}
		}
		s.Run()
		for i, id := range h.ids {
			if id != i || h.times[i] != 50 {
				t.Fatalf("eager=%v: dispatch %v at %v, want 0..11 at 50", eager, h.ids, h.times)
			}
		}
	}
}

// TestLaneInterleavesWithAtHandler verifies lane entries and AtHandler
// events scheduled from handlers merge by (at, seq) exactly: the nested
// events land before, between and after pending lane entries.
func TestLaneInterleavesWithAtHandler(t *testing.T) {
	for _, eager := range []bool{false, true} {
		s := newSched(eager)
		h := &logH{}
		l := NewLane(s, func(id int, now Time) {
			h.fire(id, now)
			if id == 1 {
				s.AtHandler(now, h, 10)   // same instant as entry 2, later seq
				s.AtHandler(now+3, h, 11) // between entries 3 and 4
				s.AtHandler(now+9, h, 12) // after the lane drains
			}
		})
		laneAt(l, 1, 5, 2, 5, 3, 7, 4, 9)
		s.AtHandler(6, h, 13)
		s.Run()
		want := "[1 2 10 13 3 11 4 12]"
		if got := fmt.Sprint(h.ids); got != want {
			t.Fatalf("eager=%v: dispatch order %s, want %s", eager, got, want)
		}
	}
}

// TestLaneRejectsDecreasingTime verifies a lane panics when fed a time
// before its previous entry or before the current instant.
func TestLaneRejectsDecreasingTime(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	s := NewScheduler(1)
	l := NewLane(s, func(int, Time) {})
	l.At(10, 1)
	l.At(10, 2) // equal times are fine
	mustPanic("decreasing", func() { l.At(9, 3) })

	s = NewScheduler(1)
	l = NewLane(s, func(int, Time) {})
	s.At(20, func() { mustPanic("past", func() { l.At(15, 1) }) })
	s.Run()
}

// TestLanePending pins exact Pending accounting under lazy emission: every
// entry counts, whether it is the lane's head or waits behind it.
func TestLanePending(t *testing.T) {
	for _, eager := range []bool{false, true} {
		s := newSched(eager)
		l := NewLane(s, (&logH{}).fire)
		laneAt(l, 1, 5, 2, 10, 3, 15)
		if got := s.Pending(); got != 3 {
			t.Fatalf("eager=%v: Pending after three At = %d, want 3", eager, got)
		}
		s.RunUntil(10)
		if got := s.Pending(); got != 1 {
			t.Fatalf("eager=%v: Pending after two entries fired = %d, want 1", eager, got)
		}
		s.RunUntil(20)
		if got := s.Pending(); got != 0 {
			t.Fatalf("eager=%v: Pending after drain = %d, want 0", eager, got)
		}
	}
}

// TestLaneStopMidLane verifies Stop from a lane callback leaves the
// remaining entries pending and resumable.
func TestLaneStopMidLane(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	l := NewLane(s, func(id int, now Time) {
		h.fire(id, now)
		s.Stop()
	})
	laneAt(l, 1, 5, 2, 10, 3, 15)
	if got := s.RunUntil(100); got != 5 {
		t.Fatalf("stopped clock = %d, want 5", got)
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after stop = %d, want 2", got)
	}
	s.RunUntil(100)
	s.RunUntil(100)
	if got := fmt.Sprint(h.ids); got != "[1 2 3]" {
		t.Fatalf("dispatched %s, want [1 2 3]", got)
	}
}

// TestLaneHorizonMidLane verifies RunUntil parks at the horizon with a lane
// straddling it, and that the straddling entries fire on resume.
func TestLaneHorizonMidLane(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	laneAt(NewLane(s, h.fire), 1, 5, 2, 20)
	if got := s.RunUntil(10); got != 10 {
		t.Fatalf("horizon park = %d, want 10", got)
	}
	if got := fmt.Sprint(h.ids); got != "[1]" {
		t.Fatalf("dispatched %s before horizon, want [1]", got)
	}
	if got := s.RunUntil(30); got != 20 {
		t.Fatalf("drained clock = %d, want 20 (parked at last event)", got)
	}
	if got := fmt.Sprint(h.ids); got != "[1 2]" {
		t.Fatalf("dispatched %s, want [1 2]", got)
	}
}

// TestLaneRingWraps drives a lane's ring through growth while its head has
// wrapped, checking FIFO order survives the unwrap.
func TestLaneRingWraps(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	l := NewLane(s, h.fire)
	next := 0
	feed := func(k int) {
		for i := 0; i < k; i++ {
			l.At(s.Now()+Time(next), next)
			next++
		}
	}
	feed(6)
	s.RunUntil(3) // four fired: the head sits mid-ring
	feed(10)      // wraps, then grows
	s.Run()
	for i, id := range h.ids {
		if id != i {
			t.Fatalf("dispatch order %v, want 0..%d", h.ids, next-1)
		}
	}
	if len(h.ids) != next {
		t.Fatalf("dispatched %d, want %d", len(h.ids), next)
	}
}

// TestSetEagerBeforeFirstEvent verifies the mode can only be chosen before
// anything is scheduled.
func TestSetEagerBeforeFirstEvent(t *testing.T) {
	s := NewScheduler(1)
	s.SetEager(true)
	s.SetEager(false)
	s.At(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetEager after scheduling did not panic")
		}
	}()
	s.SetEager(true)
}

// TestLaneDoesNotAllocate pins the zero-allocation contract of the lazy lane
// path end to end: feeding a lane and draining it touches only pre-existing
// memory once the ring and the heap have grown.
func TestLaneDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	s := NewScheduler(1)
	h := &logH{}
	h.ids = make([]int, 0, 16384)
	h.times = make([]Time, 0, 16384)
	l := NewLane(s, h.fire)
	feed := func() {
		h.ids, h.times = h.ids[:0], h.times[:0]
		now := s.Now()
		for i := 0; i < 8; i++ {
			l.At(now.Add(Duration(i+1)), i)
		}
		s.Run()
	}
	feed() // grow the ring
	if avg := testing.AllocsPerRun(1000, feed); avg != 0 {
		t.Fatalf("Lane.At+drain allocates %.1f/op, want 0", avg)
	}
}
