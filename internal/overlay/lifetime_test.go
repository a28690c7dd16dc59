package overlay

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mflow/internal/causal"
	"mflow/internal/obs"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/trace"
)

// pendingSentinel is a never-firing event handler whose only referrer is the
// scheduler's pending set. It holds a pointer so the allocator gives it a
// block of its own (finalizers on tiny-allocated objects may never run).
type pendingSentinel struct{ _ *int }

func (*pendingSentinel) Handle(any, sim.Time) {}

// TestResultReleasesSimulation pins the run-lifetime contract: a returned
// Result holds values only, so once the host is dropped its scheduler and
// skb pool — and everything reachable from them — are garbage while the
// Result is still live. Every observer a Scenario can carry is attached, since
// each is a way for the Result to reach back into the run.
//
// The scheduler sits in reference cycles (its pending events point at workers
// that point back at it), and Go never runs a finalizer on an object in a
// cycle, so it is watched through a sentinel event left pending on it: the
// sentinel can only become garbage once the scheduler has.
func TestResultReleasesSimulation(t *testing.T) {
	var schedFreed, poolFreed atomic.Bool
	res := runWatched(t, &schedFreed, &poolFreed)

	// Finalizers run on their own goroutine after the cycle that found the
	// object unreachable; give them a few cycles.
	for i := 0; i < 50 && !(schedFreed.Load() && poolFreed.Load()); i++ {
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !schedFreed.Load() {
		t.Error("the run's *sim.Scheduler is still reachable from its Result")
	}
	if !poolFreed.Load() {
		t.Error("the run's *skb.Pool is still reachable from its Result")
	}
	if res.DeliveredSegments == 0 || res.Obs == nil {
		t.Fatalf("degenerate run: %d segments, obs=%v", res.DeliveredSegments, res.Obs != nil)
	}
	runtime.KeepAlive(res)
}

// runWatched builds and runs a host with every observer attached, arranging
// for schedFreed and poolFreed to be set once its scheduler and skb pool are
// collected. The host is unreachable once it returns.
func runWatched(t *testing.T, schedFreed, poolFreed *atomic.Bool) *Result {
	sc := Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
		Warmup: 2e5, Measure: 5e5,
		Obs: obs.New(), Tracer: trace.New(), CoreLog: &obs.CoreLog{},
	}.withDefaults()
	h := testHost(sc, Probes{Causal: causal.NewProfiler(), Flight: causal.NewFlightRecorder()})
	sentinel := &pendingSentinel{}
	runtime.SetFinalizer(sentinel, func(*pendingSentinel) { schedFreed.Store(true) })
	h.sched.AtHandler(sim.Time(math.MaxInt64), sentinel, nil)
	runtime.SetFinalizer(h.pool, func(*skb.Pool) { poolFreed.Store(true) })
	return h.run()
}
