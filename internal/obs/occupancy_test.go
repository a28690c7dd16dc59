package obs

import (
	"math"
	"math/rand"
	"testing"

	"mflow/internal/metrics"
	"mflow/internal/sim"
)

// periodicSampler is the queue-depth sampler the exact accounting replaced,
// kept here as the reference: every interval of simulated time it records
// the queue's depth once.
type periodicSampler struct {
	sched *sim.Scheduler
	every sim.Duration
	depth func() int
	hist  *metrics.Histogram
}

// Handle implements sim.Handler.
func (p *periodicSampler) Handle(any, sim.Time) {
	p.hist.Record(int64(p.depth()))
	p.sched.AfterHandler(p.every, p, nil)
}

func startSampler(sched *sim.Scheduler, every sim.Duration, depth func() int) *metrics.Histogram {
	p := &periodicSampler{sched: sched, every: every, depth: depth, hist: metrics.NewHistogram()}
	sched.AfterHandler(every, p, nil)
	return p.hist
}

// TestQueueDepthExactTimeWeighted scripts a depth sequence and checks the
// flushed histogram against the hand-computed time-weighted distribution.
// The burst to 50 fills and drains between the 2 µs instants a periodic
// sampler looks at, so the sampler misses it while the exact max does not.
func TestQueueDepthExactTimeWeighted(t *testing.T) {
	script := []struct {
		at    sim.Time
		depth int
	}{{1000, 3}, {1500, 1}, {2100, 50}, {2300, 0}, {5000, 2}}
	const end = 10000

	r := New()
	sched := sim.NewScheduler(1)
	occ := sim.NewOccupancy(0, 0)
	occ.Into(r.Histogram("queue_depth", "queue", "q").RecordN)
	depth := 0
	for _, s := range script {
		s := s
		sched.At(s.at, func() {
			occ.Set(s.at, s.depth)
			depth = s.depth
		})
	}
	sampled := startSampler(sched, 2*sim.Microsecond, func() int { return depth })
	sched.RunUntil(end)
	occ.Flush(end)

	m, ok := r.Snapshot().Get("queue_depth", "queue", "q")
	if !ok {
		t.Fatal("no queue_depth series")
	}
	// Held: 0 for 1000+2700 ns, 3 for 500, 1 for 600, 50 for 200, 2 for 5000.
	const sum = 3*500 + 1*600 + 50*200 + 2*5000
	if m.Count != end || m.Sum != sum || m.Mean != float64(sum)/end {
		t.Errorf("count/sum/mean = %d/%g/%g, want %d/%d/%g", m.Count, m.Sum, m.Mean, end, sum, float64(sum)/end)
	}
	if m.Min != 0 || m.P50 != 2 || m.P99 != 50 || m.Max != 50 {
		t.Errorf("min/p50/p99/max = %d/%d/%d/%d, want 0/2/50/50", m.Min, m.P50, m.P99, m.Max)
	}
	if sampled.Max() >= 50 {
		t.Errorf("the 2 µs sampler saw the burst (max %d); the script no longer tests what it claims", sampled.Max())
	}

	// A second flush at the same instant adds nothing; a later one charges
	// the standing depth.
	occ.Flush(end)
	occ.Flush(end + 100)
	if m, _ := r.Snapshot().Get("queue_depth", "queue", "q"); m.Count != end+100 || m.Sum != sum+2*100 {
		t.Errorf("after re-flush count/sum = %d/%g, want %d/%d", m.Count, m.Sum, end+100, sum+200)
	}
}

// TestQueueDepthSinksAgree pins the shared-queue contract: one accumulator
// feeding two series (a NIC ring that is also its first stage's backlog)
// gives them identical values.
func TestQueueDepthSinksAgree(t *testing.T) {
	r := New()
	occ := sim.NewOccupancy(0, 0)
	occ.Into(r.Histogram("queue_depth", "queue", "ring").RecordN)
	occ.Into(r.Histogram("queue_depth", "queue", "backlog").RecordN)
	for i := 1; i <= 100; i++ {
		occ.Set(sim.Time(10*i), i%7*i)
	}
	occ.Flush(2000)
	s := r.Snapshot()
	a, _ := s.Get("queue_depth", "queue", "ring")
	b, _ := s.Get("queue_depth", "queue", "backlog")
	if a != b || a.Count != 2000 {
		t.Errorf("shared queue series differ: %+v vs %+v", a, b)
	}
}

// TestSampledMeanConvergesToExact is the differential check against the
// periodic sampler: a worker under bursty random load is observed both
// ways, and as the sampling interval shrinks the sampled mean depth must
// converge to the exact time-weighted mean. The exact mean must not depend
// on the sampler at all: observing never perturbs the queue.
func TestSampledMeanConvergesToExact(t *testing.T) {
	const horizon = 2 * sim.Millisecond
	rng := rand.New(rand.NewSource(7))
	var arrivals []sim.Time
	for at := sim.Time(0); at < sim.Time(horizon); {
		at += sim.Time(rng.ExpFloat64() * 400)
		for burst := 1 + rng.Intn(4); burst > 0; burst-- {
			arrivals = append(arrivals, at)
		}
	}

	run := func(every sim.Duration) (exact, sampled float64) {
		sched := sim.NewScheduler(1)
		core := sim.NewCore(0, sched)
		w := sim.NewWorker("q", core, sched, func(int) sim.Duration { return 150 }, func(int, sim.Time) {})
		w.Budget, w.WakeDelay = 8, 300
		r := New()
		w.Occupancy = sim.NewOccupancy(0, 0)
		w.Occupancy.Into(r.Histogram("queue_depth", "queue", "q").RecordN)
		for i, at := range arrivals {
			i := i
			sched.At(at, func() { w.Enqueue(i) })
		}
		hist := startSampler(sched, every, w.Len)
		sched.RunUntil(sim.Time(horizon))
		w.Occupancy.Flush(sim.Time(horizon))
		m, _ := r.Snapshot().Get("queue_depth", "queue", "q")
		return m.Mean, hist.Mean()
	}

	var exact0 float64
	var errs []float64
	for _, every := range []sim.Duration{4096, 512, 64, 8, 1} {
		exact, sampled := run(every)
		if exact0 == 0 {
			exact0 = exact
		}
		if exact != exact0 {
			t.Fatalf("exact mean %g at interval %d, %g at the first: observing perturbed the queue", exact, every, exact0)
		}
		errs = append(errs, math.Abs(sampled-exact)/exact)
	}
	if exact0 < 1 {
		t.Fatalf("load too light to test anything: exact mean depth %g", exact0)
	}
	t.Logf("exact mean %.4f; relative error of the sampled mean at 4096/512/64/8/1 ns: %.2g", exact0, errs)
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1] {
			t.Errorf("sampled mean moved away from the exact mean as the interval shrank: errors %.3g", errs)
		}
	}
	if last := errs[len(errs)-1]; last > 1e-4 {
		t.Errorf("1 ns sampling still misses the exact mean by %.3g", last)
	}
}
