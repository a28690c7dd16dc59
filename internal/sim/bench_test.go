package sim

import "testing"

// BenchmarkScheduler is the engine's headline microbenchmark: one event
// scheduled and dispatched per iteration through the closure-free Handler
// path, over a standing queue deep enough to exercise the heap's sift
// paths. On the container/heap + closure engine this cost ~2 allocs/op;
// the typed heap plus Handler path must stay at 0 (gated in CI).
func BenchmarkScheduler(b *testing.B) {
	s := NewScheduler(1)
	h := &nopHandler{}
	arg := &struct{ x int }{}
	for i := 0; i < 256; i++ {
		s.AtHandler(Time(1_000_000_000+i), h, arg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := Time(i)
		s.AtHandler(at, h, arg)
		s.RunUntil(at)
	}
}

// BenchmarkSchedulerClosure is the same shape through the closure path, for
// comparison against BenchmarkScheduler (the closure capture and boxing are
// what the Handler path eliminates).
func BenchmarkSchedulerClosure(b *testing.B) {
	s := NewScheduler(1)
	n := 0
	for i := 0; i < 256; i++ {
		s.At(Time(1_000_000_000+i), func() { n++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := Time(i)
		s.At(at, func() { n++ })
		s.RunUntil(at)
	}
}

// BenchmarkCoreTags exercises tag accounting on the hot path: Exec calls
// cycling through already-seen tags.
func BenchmarkCoreTags(b *testing.B) {
	s := NewScheduler(1)
	c := NewCore(0, s)
	tags := []string{
		"rx-softirq", "gro", "vxlan", "bridge", "veth",
		"iptables", "tcp-ofo", "socket", "udp-send", "reasm",
	}
	for _, tag := range tags {
		c.Exec(10, tag)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exec(10, tags[i%len(tags)])
	}
}

func BenchmarkSchedulerEvent(b *testing.B) {
	s := NewScheduler(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			s.After(10, fn)
		}
	}
	b.ResetTimer()
	s.At(0, fn)
	s.Run()
}

// BenchmarkSchedulerHeapChurn measures steady-state churn over a deep
// standing heap: each iteration dispatches one event and pushes one
// replacement, so pop's vacated tail slot is immediately reused by the
// next push and the heap slice never grows inside the loop. (An earlier
// version of this benchmark only pushed, so it measured amortized slice
// growth — hundreds of B/op of re-copying the whole event array — rather
// than churn; true churn through the Handler path allocates nothing.)
func BenchmarkSchedulerHeapChurn(b *testing.B) {
	const depth = 4096 // deep enough to exercise long sift paths
	s := NewScheduler(1)
	h := &nopHandler{}
	arg := &struct{ x int }{}
	for i := 0; i < depth; i++ {
		s.AtHandler(Time(1_000_000+i), h, arg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Dispatch the oldest standing event, then refill the heap to
		// the same depth: constant occupancy, pure sift work.
		s.RunUntil(Time(1_000_000 + i))
		s.AtHandler(Time(1_000_000+depth+i), h, arg)
	}
}

func BenchmarkCoreExec(b *testing.B) {
	s := NewScheduler(1)
	c := NewCore(0, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exec(100, "bench")
	}
}

func BenchmarkCoreExecJittered(b *testing.B) {
	s := NewScheduler(1)
	c := NewCore(0, s)
	c.JitterAmp = 0.06
	c.InterferenceProb = 0.001
	c.InterferenceMean = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exec(100, "bench")
	}
}

func BenchmarkWorkerPipeline(b *testing.B) {
	s := NewScheduler(1)
	c := NewCore(0, s)
	w := NewWorker("bench", c, s, func(int) Duration { return 50 }, func(int, Time) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Enqueue(i)
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkWorkerPipelineObserved is BenchmarkWorkerPipeline with an
// occupancy accumulator attached: the per-change accounting must stay at
// 0 allocs/op (gated in CI) once its per-depth slice has grown.
func BenchmarkWorkerPipelineObserved(b *testing.B) {
	s := NewScheduler(1)
	c := NewCore(0, s)
	w := NewWorker("bench", c, s, func(int) Duration { return 50 }, func(int, Time) {})
	w.Occupancy = NewOccupancy(0, 0)
	var sum uint64
	w.Occupancy.Into(func(d int64, ns uint64) { sum += uint64(d) * ns })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Enqueue(i)
		if i%1024 == 1023 {
			s.Run()
			w.Occupancy.Flush(s.Now())
		}
	}
	s.Run()
	w.Occupancy.Flush(s.Now())
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRandNorm(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// BenchmarkLaneAt feeds a lane 16 entries and drains it per iteration: the
// head enters the pending set, and each successor enters when its
// predecessor fires. Pinned at 0 allocs/op by the bench gate.
func BenchmarkLaneAt(b *testing.B) {
	s := NewScheduler(1)
	h := &nopHandler{}
	l := NewLane(s, func(int, Time) { h.n++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := s.Now()
		for j := 0; j < 16; j++ {
			l.At(now.Add(Duration(j)), j)
		}
		s.Run()
	}
}
