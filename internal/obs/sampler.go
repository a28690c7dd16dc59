package obs

import (
	"mflow/internal/metrics"
	"mflow/internal/sim"
)

// DefaultSampleInterval is the queue-depth probe period when StartSampler is
// given a non-positive interval: fine enough to see softirq-scale queue
// build-up (a NAPI poll round is a handful of microseconds) without the
// sampling dominating the event count.
const DefaultSampleInterval = 2 * sim.Microsecond

// probe is one sampled queue: a depth function and the histogram its
// occupancy time-series accumulates into.
type probe struct {
	hist  *metrics.Histogram
	depth func() int
}

// SampleQueue registers queue's depth function for periodic sampling.
// Samples accumulate into queue_depth{queue=<name>}, whose snapshot exposes
// the max/mean/p99 occupancy the paper reasons about (backlog and ring
// build-up under a serialized flow). No-op on a nil registry.
func (r *Registry) SampleQueue(queue string, depth func() int) {
	if r == nil || depth == nil {
		return
	}
	r.probes = append(r.probes, probe{
		hist:  r.Histogram("queue_depth", "queue", queue),
		depth: depth,
	})
}

// samplerTick is the sampler's self-rescheduling event, on the scheduler's
// closure-free path: one allocation per StartSampler instead of one closure
// per tick.
type samplerTick struct {
	r        *Registry
	sched    *sim.Scheduler
	interval sim.Duration
}

// Handle implements sim.Handler.
func (t *samplerTick) Handle(any, sim.Time) {
	if t.r.tick != t {
		return // stopped (and possibly restarted with a tick of its own)
	}
	for _, p := range t.r.probes {
		p.hist.Record(int64(p.depth()))
	}
	t.r.Samples++
	t.sched.AfterHandler(t.interval, t, nil)
}

// StartSampler begins periodic sampling of every registered queue on sched's
// simulated clock (interval <= 0 selects DefaultSampleInterval). The sampler
// reschedules itself until StopSampler is called or the scheduler's horizon
// ends; starting an already-running sampler, or one with no registered
// queues, is a no-op.
func (r *Registry) StartSampler(sched *sim.Scheduler, interval sim.Duration) {
	if r == nil || r.tick != nil || len(r.probes) == 0 {
		return
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	r.tick = &samplerTick{r: r, sched: sched, interval: interval}
	sched.AfterHandler(interval, r.tick, nil)
}

// StopSampler halts periodic sampling (the pending tick becomes a no-op)
// and releases the registered probes. Their depth functions close over the
// sampled queues — and through them the whole simulation — so a registry
// that outlives its run must not keep them; the queue_depth histograms the
// probes filled stay in the registry. Queues must be registered again
// before the sampler can restart.
func (r *Registry) StopSampler() {
	if r != nil {
		r.tick = nil
		r.probes = nil
	}
}
