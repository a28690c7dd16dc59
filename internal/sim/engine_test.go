package sim

import "testing"

// nopHandler is a minimal Handler for scheduling-path tests.
type nopHandler struct{ n int }

func (h *nopHandler) Handle(any, Time) { h.n++ }

// recHandler records each firing's time and argument.
type recHandler struct {
	times []Time
	args  []any
}

func (h *recHandler) Handle(arg any, now Time) {
	h.times = append(h.times, now)
	h.args = append(h.args, arg)
}

// A drained scheduler parks the clock where its last event ran rather than
// jumping to the horizon: Run on a scheduler whose last event fires at t=100
// must end at 100, and a later RunUntil with a generous horizon must not
// advance an idle clock either.
func TestRunUntilParksAtLastEvent(t *testing.T) {
	s := NewScheduler(1)
	s.At(100, func() {})
	if end := s.RunUntil(1000); end != 100 {
		t.Errorf("RunUntil(1000) on a queue ending at 100 returned %v, want 100", end)
	}
	if s.Now() != 100 {
		t.Errorf("clock at %v after drain, want parked at 100", s.Now())
	}
	if end := s.Run(); end != 100 {
		t.Errorf("Run() on a drained scheduler returned %v, want 100 (clock must not jump to the horizon)", end)
	}
}

// A horizon already in the past is a no-op: the clock never moves backwards
// and no pending events run.
func TestRunUntilHorizonInPast(t *testing.T) {
	s := NewScheduler(1)
	s.At(500, func() {})
	s.Run()
	ran := false
	s.At(600, func() { ran = true })
	if end := s.RunUntil(400); end != 500 {
		t.Errorf("RunUntil(400) with clock at 500 returned %v, want 500", end)
	}
	if ran {
		t.Error("RunUntil with a past horizon ran a future event")
	}
	if s.Pending() != 1 {
		t.Errorf("%d events pending, want 1", s.Pending())
	}
}

// Stop also parks the clock at the interrupted event, leaving the rest of
// the queue intact for a later resume.
func TestRunUntilStopParksClock(t *testing.T) {
	s := NewScheduler(1)
	s.At(100, func() { s.Stop() })
	s.At(900, func() {})
	if end := s.RunUntil(1000); end != 100 {
		t.Errorf("stopped RunUntil returned %v, want 100", end)
	}
	if s.Pending() != 1 {
		t.Errorf("%d events pending after Stop, want 1", s.Pending())
	}
	if end := s.Run(); end != 900 {
		t.Errorf("resumed Run returned %v, want 900", end)
	}
}

// With events beyond the horizon the clock advances exactly to the horizon.
func TestRunUntilAdvancesToHorizon(t *testing.T) {
	s := NewScheduler(1)
	s.At(2000, func() {})
	if end := s.RunUntil(1000); end != 1000 {
		t.Errorf("RunUntil(1000) returned %v, want 1000", end)
	}
	if s.Pending() != 1 {
		t.Errorf("%d events pending, want 1", s.Pending())
	}
}

// Handler events and closure events scheduled for the same instant share one
// FIFO: dispatch order is scheduling order regardless of which path was used.
func TestHandlerAndClosureShareFIFO(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	h := &recHandler{}
	s.At(100, func() { order = append(order, 0) })
	s.AtHandler(100, h, 1)
	s.At(100, func() { order = append(order, 2) })
	s.AtHandler(100, h, 3)
	s.Run()
	// Interleave the handler's recordings back by argument.
	if len(order) != 2 || len(h.args) != 2 {
		t.Fatalf("ran %d closures and %d handler events, want 2 and 2", len(order), len(h.args))
	}
	if order[0] != 0 || h.args[0] != 1 || order[1] != 2 || h.args[1] != 3 {
		t.Errorf("same-instant FIFO broken: closures %v, handler args %v", order, h.args)
	}
}

// Handle receives the event's fire time: the scheduled instant, or the
// clamped "now" for events scheduled into the past.
func TestHandlerFireTimeAndClamp(t *testing.T) {
	s := NewScheduler(1)
	h := &recHandler{}
	s.At(100, func() {
		s.AtHandler(10, h, "past")   // clamps to 100
		s.AfterHandler(25, h, "rel") // fires at 125
	})
	s.AtHandler(250, h, "abs")
	s.Run()
	want := []Time{100, 125, 250}
	if len(h.times) != len(want) {
		t.Fatalf("handler fired %d times, want %d", len(h.times), len(want))
	}
	for i, at := range want {
		if h.times[i] != at {
			t.Errorf("firing %d (%v) at %v, want %v", i, h.args[i], h.times[i], at)
		}
	}
}

// The handler fast path must not allocate: scheduling plus dispatching an
// event through a long-lived Handler with a pointer argument is free once
// the heap slice has grown. This is the property the whole engine refactor
// exists for, so it is pinned, not just benchmarked.
func TestHandlerPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewScheduler(1)
	h := &nopHandler{}
	arg := &struct{ x int }{}
	// Grow the event slice past any capacity this test will need.
	for i := 0; i < 64; i++ {
		s.AtHandler(Time(i), h, arg)
	}
	s.Run()
	avg := testing.AllocsPerRun(1000, func() {
		s.AtHandler(s.Now().Add(1), h, arg)
		s.Run()
	})
	if avg != 0 {
		t.Errorf("handler schedule+dispatch averaged %.2f allocs/op, want 0", avg)
	}
}

// Core tag accounting must charge each tag its own bucket and must not
// allocate on the hot Exec path once every tag has been seen.
func TestCoreTagAccounting(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(0, s)
	tags := []string{"veth", "bridge", "gro", "alpha"}
	for _, tag := range tags {
		c.Exec(10, tag)
	}
	got := c.BusyByTag()
	if len(got) != len(tags) {
		t.Fatalf("BusyByTag() = %v, want one bucket per tag %v", got, tags)
	}
	for _, tag := range tags {
		if got[tag] != 10 {
			t.Fatalf("BusyByTag()[%q] = %v, want 10", tag, got[tag])
		}
	}
	if !raceEnabled {
		avg := testing.AllocsPerRun(1000, func() { c.Exec(10, "gro") })
		if avg != 0 {
			t.Errorf("Exec on a seen tag averaged %.2f allocs/op, want 0", avg)
		}
	}
}
