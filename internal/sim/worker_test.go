package sim

import (
	"testing"
	"testing/quick"
)

func TestWorkerProcessesFIFO(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var got []int
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(v int, _ Time) {
		got = append(got, v)
	})
	s.At(0, func() {
		for i := 0; i < 200; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	if len(got) != 200 {
		t.Fatalf("processed %d items, want 200", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d processed out of order (got %d)", i, v)
		}
	}
	if w.Processed != 200 {
		t.Errorf("Processed=%d, want 200", w.Processed)
	}
}

func TestWorkerBudgetYields(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(int, Time) {})
	w.Budget = 16
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	// ceil(100/16) = 7 poll rounds
	if w.PollRounds != 7 {
		t.Errorf("PollRounds=%d, want 7", w.PollRounds)
	}
}

func TestWorkerBoundedQueueDrops(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(int, Time) {})
	w.Cap = 50
	accepted := 0
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			if w.Enqueue(i) {
				accepted++
			}
		}
	})
	s.Run()
	if accepted != 50 {
		t.Errorf("accepted %d, want 50", accepted)
	}
	if w.Dropped != 50 {
		t.Errorf("Dropped=%d, want 50", w.Dropped)
	}
}

func TestWorkerWakeDelay(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var doneAt Time
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(_ int, end Time) {
		doneAt = end
	})
	w.WakeDelay = 500
	s.At(100, func() { w.Enqueue(1) })
	s.Run()
	// enqueue at 100, poll at 600, processing 10 -> 610
	if doneAt != 610 {
		t.Errorf("completion at %v, want 610", doneAt)
	}
}

func TestWorkerCompletionTimesSerializeOnCore(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var ends []Time
	w := NewWorker("w", c, s, func(int) Duration { return 100 }, func(_ int, end Time) {
		ends = append(ends, end)
	})
	s.At(0, func() {
		for i := 0; i < 5; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	for i, e := range ends {
		want := Time(100 * (i + 1))
		if e != want {
			t.Errorf("item %d completed at %v, want %v", i, e, want)
		}
	}
}

func TestTwoWorkersInterleaveOnOneCore(t *testing.T) {
	// Two stages sharing a core must interleave in batches, not run in
	// parallel: total elapsed equals the sum of all work.
	s := NewScheduler(1)
	c := NewCore(1, s)
	var lastEnd Time
	w2 := NewWorker("s2", c, s, func(int) Duration { return 30 }, func(_ int, end Time) {
		if end > lastEnd {
			lastEnd = end
		}
	})
	w1 := NewWorker("s1", c, s, func(int) Duration { return 20 }, func(v int, _ Time) {
		w2.Enqueue(v)
	})
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			w1.Enqueue(i)
		}
	})
	s.Run()
	if want := Time(10*20 + 10*30); lastEnd != want {
		t.Errorf("pipeline finished at %v, want %v (serialized on one core)", lastEnd, want)
	}
}

func TestTwoWorkersOverlapOnTwoCores(t *testing.T) {
	s := NewScheduler(1)
	c1, c2 := NewCore(1, s), NewCore(2, s)
	var lastEnd Time
	w2 := NewWorker("s2", c2, s, func(int) Duration { return 30 }, func(_ int, end Time) {
		if end > lastEnd {
			lastEnd = end
		}
	})
	w2.Budget = 1 // force per-item polls so overlap is visible
	w1 := NewWorker("s1", c1, s, func(int) Duration { return 20 }, func(v int, _ Time) {
		w2.Enqueue(v)
	})
	w1.Budget = 1
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			w1.Enqueue(i)
		}
	})
	s.Run()
	serialized := Time(10*20 + 10*30)
	if lastEnd >= serialized {
		t.Errorf("two-core pipeline finished at %v, want earlier than %v", lastEnd, serialized)
	}
	// Stage-2 core can only start after the first stage-1 completion.
	if lastEnd < Time(20+10*30) {
		t.Errorf("finished impossibly early at %v", lastEnd)
	}
}

func TestWorkerProcessBatchOverride(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var batches [][]int
	w := &Worker[int]{Name: "b", Core: c, Sched: s, Budget: 8}
	w.ProcessBatch = func(batch []int) {
		cp := append([]int(nil), batch...)
		batches = append(batches, cp)
		c.Exec(Duration(len(batch))*5, "b")
	}
	s.At(0, func() {
		for i := 0; i < 20; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	if len(batches) != 3 { // 8+8+4
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	if len(batches[0]) != 8 || len(batches[2]) != 4 {
		t.Errorf("batch sizes %d,%d,%d want 8,8,4", len(batches[0]), len(batches[1]), len(batches[2]))
	}
}

func TestWorkerPollOverheadCharged(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(int, Time) {})
	w.PollOverhead = 100
	w.Budget = 4
	s.At(0, func() {
		for i := 0; i < 8; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	// 2 polls * 100 overhead + 8 items * 10
	if got := c.BusyTotal(); got != 280 {
		t.Errorf("busy %v, want 280", got)
	}
	if c.BusyByTag()["w/poll"] != 200 {
		t.Errorf("poll overhead tag = %v, want 200", c.BusyByTag()["w/poll"])
	}
}

// Property: a worker delivers every accepted item exactly once, in enqueue
// order, regardless of budget and batch pattern.
func TestWorkerDeliveryProperty(t *testing.T) {
	f := func(budget uint8, counts []uint8) bool {
		s := NewScheduler(11)
		c := NewCore(1, s)
		var got []int
		w := NewWorker("w", c, s, func(int) Duration { return 7 }, func(v int, _ Time) {
			got = append(got, v)
		})
		w.Budget = int(budget%32) + 1
		next := 0
		at := Time(0)
		for _, cnt := range counts {
			n := int(cnt % 16)
			at += 50
			start := next
			s.At(at, func() {
				for i := 0; i < n; i++ {
					w.Enqueue(start + i)
				}
			})
			next += n
		}
		s.Run()
		if len(got) != next {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerQueueCompactsInPlace drives a worker whose backlog never drains:
// every round takes its batch in place while the batch itself enqueues as
// many new items onto the same worker. Order must stay FIFO, no live batch
// may be overwritten, and compaction must keep the buffer bounded by the
// backlog rather than by the number of items ever queued.
func TestWorkerQueueCompactsInPlace(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	w := &Worker[int]{Name: "c", Core: c, Sched: s, Budget: 8}
	const backlog, total = 100, 3000
	next, want, maxCap := 0, 0, 0
	w.ProcessBatch = func(batch []int) {
		for range batch {
			if next < total {
				w.Enqueue(next)
				next++
			}
		}
		for _, v := range batch {
			if v != want {
				t.Fatalf("batch item %d, want %d (FIFO broken or live batch overwritten)", v, want)
			}
			want++
		}
		c.Exec(Duration(len(batch)), "c")
		if n := cap(w.queue); n > maxCap {
			maxCap = n
		}
	}
	s.At(0, func() {
		for ; next < backlog; next++ {
			w.Enqueue(next)
		}
	})
	s.Run()
	if want != total {
		t.Fatalf("processed %d items, want %d", want, total)
	}
	if maxCap > 4*backlog {
		t.Fatalf("queue buffer grew to %d slots for a %d-item backlog", maxCap, backlog)
	}
}

// TestWorkerStealAfterPartialPoll verifies StealQueue hands back exactly the
// undrained remainder once poll rounds have advanced the queue head.
func TestWorkerStealAfterPartialPoll(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var got, stolen []int
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(v int, _ Time) { got = append(got, v) })
	w.Budget = 8
	for i := 0; i < 20; i++ {
		w.Enqueue(i)
	}
	s.RunUntil(0) // the first round takes items 0..7
	stolen = append(stolen, w.StealQueue()...)
	s.Run()
	if len(got) != 8 || got[7] != 7 {
		t.Fatalf("delivered %v, want 0..7", got)
	}
	if len(stolen) != 12 || stolen[0] != 8 || stolen[11] != 19 {
		t.Fatalf("stole %v, want 8..19", stolen)
	}
}
