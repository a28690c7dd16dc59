package sim

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// runLink is the test chain type: a minimal RunLink carrying an id so
// dispatch order can be asserted.
type runLink struct {
	id   int
	next *runLink
	at   Time
}

func (l *runLink) NextRun() (RunLink, Time) {
	if l.next == nil {
		return nil, 0
	}
	return l.next, l.at
}

func (l *runLink) SetNextRun(next RunLink, at Time) {
	if next == nil {
		l.next, l.at = nil, 0
		return
	}
	l.next, l.at = next.(*runLink), at
}

// chain builds a run from (id, at) pairs and returns its head plus the
// head's fire time.
func chain(entries ...[2]int) (*runLink, Time, int) {
	var head, tail *runLink
	var headAt Time
	for _, e := range entries {
		l := &runLink{id: e[0]}
		if tail == nil {
			head, headAt = l, Time(e[1])
		} else {
			tail.SetNextRun(l, Time(e[1]))
		}
		tail = l
	}
	return head, headAt, len(entries)
}

// logH records every dispatch as (arg id, fire time).
type logH struct {
	ids   []int
	times []Time
}

func (h *logH) Handle(arg any, now Time) {
	switch v := arg.(type) {
	case *runLink:
		h.ids = append(h.ids, v.id)
	case int:
		h.ids = append(h.ids, v)
	default:
		h.ids = append(h.ids, -1)
	}
	h.times = append(h.times, now)
}

// withCoalescing runs f under the given coalescing mode, restoring after.
func withCoalescing(on bool, f func()) {
	restore := SetCoalescing(on)
	defer restore()
	f()
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

// runScript drives one scheduler through a fixed mixed workload — single
// events, runs (including same-instant chains), an interleaved run scheduled
// from inside a handler, and a partial-horizon RunUntil — and returns the
// dispatch log and final clock. It fails t if the drained scheduler's slab
// leaks a slot.
func runScript(t *testing.T) (ids []int, times []Time, now Time, pend int) {
	s := NewScheduler(1)
	h := &logH{}
	s.AtHandler(10, h, 1)
	head, at, n := chain([2]int{2, 10}, [2]int{3, 12}, [2]int{4, 12}, [2]int{5, 20})
	s.ScheduleRun(h, head, at, n)
	s.AtHandler(12, h, 6) // same instant as entries 3,4; scheduled later, fires after
	s.At(11, func() {
		// Scheduled from inside the horizon: a nested run landing between
		// pending run entries.
		h2, a2, n2 := chain([2]int{7, 11}, [2]int{8, 15})
		s.ScheduleRun(h, h2, a2, n2)
	})
	s.RunUntil(14)
	pend = s.Pending()
	now = s.RunUntil(100)
	if leak := slabLeak(s); leak != "" {
		t.Errorf("coalescing=%v: %s", CoalescingEnabled(), leak)
	}
	return h.ids, h.times, now, pend
}

// TestScheduleRunMatchesEager pins the tentpole's core claim: lazy
// run-coalesced scheduling dispatches in exactly the order and at exactly
// the clock readings of the eager one-event-per-entry reference.
func TestScheduleRunMatchesEager(t *testing.T) {
	var lazyIDs, eagerIDs []int
	var lazyTimes, eagerTimes []Time
	var lazyNow, eagerNow Time
	var lazyPend, eagerPend int
	withCoalescing(true, func() { lazyIDs, lazyTimes, lazyNow, lazyPend = runScript(t) })
	withCoalescing(false, func() { eagerIDs, eagerTimes, eagerNow, eagerPend = runScript(t) })

	if len(lazyIDs) != len(eagerIDs) {
		t.Fatalf("dispatch counts differ: lazy %d eager %d", len(lazyIDs), len(eagerIDs))
	}
	for i := range lazyIDs {
		if lazyIDs[i] != eagerIDs[i] || lazyTimes[i] != eagerTimes[i] {
			t.Fatalf("dispatch %d differs: lazy (%d,%d) eager (%d,%d)",
				i, lazyIDs[i], lazyTimes[i], eagerIDs[i], eagerTimes[i])
		}
	}
	if lazyNow != eagerNow {
		t.Fatalf("final clock differs: lazy %d eager %d", lazyNow, eagerNow)
	}
	if lazyPend != eagerPend {
		t.Fatalf("mid-horizon Pending differs: lazy %d eager %d", lazyPend, eagerPend)
	}
	// And the order itself is the documented one: (at, seq) total order
	// with FIFO among same-instant events, run entries in chain order.
	want := []int{1, 2, 7, 3, 4, 6, 8, 5}
	for i, id := range want {
		if lazyIDs[i] != id {
			t.Fatalf("dispatch order %v, want %v", lazyIDs, want)
		}
	}
}

// TestScheduleRunPending pins exact Pending accounting under lazy emission:
// every reserved entry counts, materialized or not.
func TestScheduleRunPending(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	head, at, n := chain([2]int{1, 5}, [2]int{2, 10}, [2]int{3, 15})
	s.ScheduleRun(h, head, at, n)
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending after ScheduleRun = %d, want 3", got)
	}
	s.RunUntil(10)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after two entries fired = %d, want 1", got)
	}
	s.RunUntil(20)
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// TestScheduleRunStopMidRun verifies Stop from a run entry's handler leaves
// the remaining entries pending and resumable.
func TestScheduleRunStopMidRun(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	stopper := &funcH{fn: func(arg any, now Time) {
		h.Handle(arg, now)
		s.Stop()
	}}
	head, at, n := chain([2]int{1, 5}, [2]int{2, 10}, [2]int{3, 15})
	s.ScheduleRun(stopper, head, at, n)
	if got := s.RunUntil(100); got != 5 {
		t.Fatalf("stopped clock = %d, want 5", got)
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after stop = %d, want 2", got)
	}
	s.RunUntil(100)
	s.RunUntil(100)
	if want := []int{1, 2, 3}; len(h.ids) != 3 || h.ids[0] != want[0] || h.ids[1] != want[1] || h.ids[2] != want[2] {
		t.Fatalf("dispatched %v, want %v", h.ids, want)
	}
}

// funcH adapts a func to Handler for tests.
type funcH struct{ fn func(any, Time) }

func (f *funcH) Handle(arg any, now Time) { f.fn(arg, now) }

// TestScheduleRunHorizonMidRun verifies RunUntil parks at the horizon with a
// run straddling it, and that the straddling entries fire on resume.
func TestScheduleRunHorizonMidRun(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	head, at, n := chain([2]int{1, 5}, [2]int{2, 20})
	s.ScheduleRun(h, head, at, n)
	if got := s.RunUntil(10); got != 10 {
		t.Fatalf("horizon park = %d, want 10", got)
	}
	if len(h.ids) != 1 || h.ids[0] != 1 {
		t.Fatalf("dispatched %v before horizon, want [1]", h.ids)
	}
	if got := s.RunUntil(30); got != 20 {
		t.Fatalf("drained clock = %d, want 20 (parked at last event)", got)
	}
	if len(h.ids) != 2 || h.ids[1] != 2 {
		t.Fatalf("dispatched %v, want [1 2]", h.ids)
	}
}

// TestScheduleRunPastClamp verifies a run whose head (or whole chain) is in
// the past fires at the current instant, like At/AtHandler.
func TestScheduleRunPastClamp(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	s.At(50, func() {
		head, at, n := chain([2]int{1, 5}, [2]int{2, 10})
		s.ScheduleRun(h, head, at, n)
	})
	s.Run()
	if len(h.times) != 2 || h.times[0] != 50 || h.times[1] != 50 {
		t.Fatalf("clamped fire times %v, want [50 50]", h.times)
	}
}

// TestSchedStats sanity-checks the telemetry counters on a known workload.
func TestSchedStats(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	head, at, n := chain([2]int{1, 5}, [2]int{2, 6}, [2]int{3, 7}, [2]int{4, 8})
	s.ScheduleRun(h, head, at, n)
	s.AtHandler(9, h, 5)
	s.Run()
	st := s.Stats()
	if st.Scheduled != 5 {
		t.Fatalf("Scheduled = %d, want 5", st.Scheduled)
	}
	if st.Coalesced != 3 {
		t.Fatalf("Coalesced = %d, want 3 (k-1 of the run)", st.Coalesced)
	}
	// With an otherwise empty pending set, the run head and each
	// materialized successor take the inline slot.
	if st.Inlined == 0 {
		t.Fatalf("Inlined = 0, want > 0")
	}
	if st.HeapOps() != st.HeapPushes+st.HeapPops {
		t.Fatalf("HeapOps inconsistent")
	}
	if st.HeapPushes != st.HeapPops {
		t.Fatalf("drained scheduler: pushes %d != pops %d", st.HeapPushes, st.HeapPops)
	}
	var merged SchedStats
	merged.Merge(st)
	merged.Merge(st)
	if merged.Scheduled != 2*st.Scheduled || merged.PeakHeap != st.PeakHeap {
		t.Fatalf("Merge: got %+v", merged)
	}
}

// TestInlineSlotOvertaken pins the slot's ordering guard: an event placed in
// the slot is still overtaken by a later-scheduled, earlier-firing event.
func TestInlineSlotOvertaken(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	s.At(10, func() {
		s.AtHandler(30, h, 1) // takes the slot (nothing else pending)
		s.AtHandler(20, h, 2) // heap; must still fire first
	})
	s.Run()
	if len(h.ids) != 2 || h.ids[0] != 2 || h.ids[1] != 1 {
		t.Fatalf("dispatch order %v, want [2 1]", h.ids)
	}
	if h.times[0] != 20 || h.times[1] != 30 {
		t.Fatalf("fire times %v, want [20 30]", h.times)
	}
}

// TestSetCoalescingRestore verifies the test toggle round-trips.
func TestSetCoalescingRestore(t *testing.T) {
	was := CoalescingEnabled()
	restore := SetCoalescing(!was)
	if CoalescingEnabled() == was {
		t.Fatalf("SetCoalescing did not flip the mode")
	}
	restore()
	if CoalescingEnabled() != was {
		t.Fatalf("restore did not return to the prior mode")
	}
}

// TestScheduleRunDoesNotAllocate pins the zero-allocation contract of the
// lazy run path end to end: scheduling a chain and draining it touches only
// pre-existing memory once the heap slice has grown.
func TestScheduleRunDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	s := NewScheduler(1)
	h := &logH{}
	h.ids = make([]int, 0, 4096)
	h.times = make([]Time, 0, 4096)
	links := [8]runLink{}
	avg := testing.AllocsPerRun(1000, func() {
		h.ids, h.times = h.ids[:0], h.times[:0]
		now := s.Now()
		for i := range links {
			links[i] = runLink{id: i}
		}
		for i := 0; i < len(links)-1; i++ {
			links[i].SetNextRun(&links[i+1], now.Add(Duration(i+2)))
		}
		s.ScheduleRun(h, &links[0], now.Add(1), len(links))
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("ScheduleRun+drain allocates %.1f/op, want 0", avg)
	}
}

// TestCoreRunDoesNotAllocate pins Core.Run's recycled completion carrier: a
// steady-state Run with a prebound continuation allocates nothing.
func TestCoreRunDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	s := NewScheduler(1)
	c := NewCore(0, s)
	fn := func(end Time) {}
	c.Run(10, "warm", fn) // warm the tag map and carrier freelist
	s.Run()
	avg := testing.AllocsPerRun(1000, func() {
		c.Run(10, "warm", fn)
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("Core.Run allocates %.1f/op, want 0", avg)
	}
}

// TestWorkerStealQueueRecyclesBuffer verifies StealQueue hands back the live
// queue buffer (no copy) and the worker keeps functioning afterwards.
func TestWorkerStealQueueRecyclesBuffer(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(0, s)
	var got []int
	w := NewWorker[int]("steal", c, s, func(int) Duration { return 1 }, func(v int, _ Time) { got = append(got, v) })
	for i := 0; i < 4; i++ {
		w.Enqueue(i)
	}
	stolen := w.StealQueue()
	if len(stolen) != 4 {
		t.Fatalf("stole %d items, want 4", len(stolen))
	}
	if w.Len() != 0 {
		t.Fatalf("queue depth after steal = %d, want 0", w.Len())
	}
	if raceEnabled == false {
		if avg := testing.AllocsPerRun(100, func() {
			for i := 0; i < 4; i++ {
				w.Enqueue(i)
			}
			w.StealQueue()
		}); avg != 0 {
			t.Fatalf("StealQueue allocates %.1f/op, want 0", avg)
		}
	}
	// The worker ping-pongs onto the recycled buffer and still delivers.
	w.Enqueue(40)
	w.Enqueue(41)
	s.Run()
	if len(got) != 2 || got[0] != 40 || got[1] != 41 {
		t.Fatalf("post-steal deliveries %v, want [40 41]", got)
	}
	if w.StealQueue() != nil {
		t.Fatalf("StealQueue on empty queue should return nil")
	}
}

// TestEventRecordIsPointerFree pins the heap record's layout: no field the
// garbage collector would have to scan (so sift copies take no write
// barriers), and no wider than 24 bytes.
func TestEventRecordIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointers(f.Type) {
			t.Errorf("event.%s (%s) carries pointers", f.Name, f.Type)
		}
	}
	if sz := unsafe.Sizeof(event{}); sz > 24 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want <= 24", sz)
	}
}

// hasPointers reports whether values of t hold any pointer the garbage
// collector scans.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // pointers, strings, slices, maps, chans, funcs, interfaces
}

// TestSlabDrainsToFreeList checks the slab's leak property in both
// coalescing modes over runs cut by Stop and by RunUntil horizons: once the
// scheduler drains, every slot is free and zeroed. It also pins slot reuse:
// with coalescing on, a whole run occupies a single slab slot.
func TestSlabDrainsToFreeList(t *testing.T) {
	for _, on := range []bool{true, false} {
		withCoalescing(on, func() {
			s := NewScheduler(1)
			h := &logH{}
			head, at, n := chain([2]int{1, 5}, [2]int{2, 5}, [2]int{3, 9}, [2]int{4, 30})
			s.ScheduleRun(h, head, at, n)
			s.AtHandler(7, h, 5)
			s.At(8, func() {
				s.Stop()
				s.AtHandler(8, h, 6)
			})
			s.RunUntil(20) // stops at 8 with a run entry and event 6 pending
			s.RunUntil(20) // parks at the horizon mid-run
			s.Run()
			if leak := slabLeak(s); leak != "" {
				t.Errorf("coalescing=%v: %s", on, leak)
			}

			s = NewScheduler(1)
			head, at, n = chain([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}, [2]int{4, 4})
			s.ScheduleRun(h, head, at, n)
			s.Run()
			want := 1
			if !on {
				want = n
			}
			if len(s.refs) != want {
				t.Errorf("coalescing=%v: %d-entry run used %d slab slots, want %d", on, n, len(s.refs), want)
			}
		})
	}
}
