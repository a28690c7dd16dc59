package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestSchedStats sanity-checks the telemetry counters on a known workload.
func TestSchedStats(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	laneAt(NewLane(s, h.fire), 1, 5, 2, 6, 3, 7, 4, 8)
	s.AtHandler(9, h, 5)
	s.Run()
	st := s.Stats()
	if st.Scheduled != 5 {
		t.Fatalf("Scheduled = %d, want 5", st.Scheduled)
	}
	if st.Coalesced != 3 {
		t.Fatalf("Coalesced = %d, want 3 (the entries queued behind the head)", st.Coalesced)
	}
	// With an otherwise empty pending set, the lane head and each
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

// TestSlabDrainsToFreeList checks the slab's leak property on lazy and
// eager schedulers over lanes cut by Stop and by RunUntil horizons: once the
// scheduler drains, every slot is free and zeroed. It also pins that lane
// entries take no slab slot in either mode: their events name the lane.
func TestSlabDrainsToFreeList(t *testing.T) {
	for _, eager := range []bool{false, true} {
		s := newSched(eager)
		h := &logH{}
		laneAt(NewLane(s, h.fire), 1, 5, 2, 5, 3, 9, 4, 30)
		s.AtHandler(7, h, 5)
		s.At(8, func() {
			s.Stop()
			s.AtHandler(8, h, 6)
		})
		s.RunUntil(20) // stops at 8 with a lane entry and event 6 pending
		s.RunUntil(20) // parks at the horizon mid-lane
		s.Run()
		if leak := slabLeak(s); leak != "" {
			t.Errorf("eager=%v: %s", eager, leak)
		}

		s = newSched(eager)
		laneAt(NewLane(s, h.fire), 1, 1, 2, 2, 3, 3, 4, 4)
		s.Run()
		if len(s.refs) != 0 {
			t.Errorf("eager=%v: a 4-entry lane used %d slab slots, want 0", eager, len(s.refs))
		}
	}
}
