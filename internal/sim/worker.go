package sim

// DefaultBudget is the number of items a worker processes per poll round
// before yielding, mirroring the kernel's NAPI budget of 64.
const DefaultBudget = 64

// Worker is a softirq-style batch consumer: a FIFO queue of items bound to a
// core. Enqueueing onto an idle worker schedules a poll (after WakeDelay,
// standing in for IPI/softirq-raise latency); each poll round drains up to
// Budget items, charges their processing cost to the core, and hands each
// item downstream at its completion instant. If items remain after a round
// the worker immediately reschedules itself, which is exactly how NAPI
// re-arms: the net effect is that multiple workers sharing one core
// interleave in batches, the paper's "stages multiplexed in a pipelined
// manner on the same core".
type Worker[T any] struct {
	// Name identifies the worker in accounting tags and diagnostics.
	Name string
	// Core is the CPU the worker's processing is charged to.
	Core *Core
	// Sched drives the worker's events.
	Sched *Scheduler
	// Budget is the max items per poll round (default DefaultBudget).
	Budget int
	// Cap bounds the queue; beyond it items are dropped (0 = unbounded).
	// This models fixed-size ring/backlog queues (netdev_max_backlog).
	Cap int
	// PollOverhead is a fixed cost charged once per poll round.
	PollOverhead Duration
	// WakeDelay is the latency between an enqueue onto an idle worker and
	// the start of its poll round (softirq raise / IPI propagation).
	WakeDelay Duration
	// IdleGrace keeps the worker armed for this long after its queue
	// drains before declaring it idle — NAPI/interrupt-moderation
	// behaviour that avoids paying WakeDelay (and the NIC an interrupt)
	// for every micro-burst. Zero disarms immediately.
	IdleGrace Duration
	// Cost returns the nominal processing cost of one item.
	Cost func(T) Duration
	// Then receives each item and its completion instant. It typically
	// enqueues the item onto the next stage. Required unless ProcessBatch
	// is set.
	Then func(T, Time)
	// ProcessBatch, if non-nil, replaces the per-item path: it receives
	// the drained batch and is responsible for charging the core (via
	// Core.Exec) and delivering results downstream. GRO uses this to
	// merge a batch before charging downstream stages.
	ProcessBatch func(batch []T)
	// Gate, if non-nil, is consulted before each enqueue: returning false
	// rejects the item without touching the queue or the Dropped counter
	// (the gate owns the accounting). Fault injection uses this to model
	// ring/backlog/socket admission loss independent of occupancy.
	Gate func(T) bool
	// ServeLog, if non-nil, observes each per-item execution window
	// [start, end) as it is charged to the core. Observation only — it
	// must not mutate the item or the worker. The causal profiler uses it
	// to split queue-wait from service time on workers it cannot wrap
	// (e.g. socket delivery-copy workers).
	ServeLog func(item T, start, end Time)

	// The FIFO is queue[head:]: a poll round takes its batch in place and
	// advances head, so the undrained backlog is not copied every round.
	// The consumed prefix is reclaimed when the round ends (see compact).
	queue     []T
	head      int
	spare     []T // recycled backing buffer StealQueue swaps in for queue
	scheduled bool
	pollTag   string // Name+"/poll", concatenated once

	// Closure-free scheduling: poll rounds are scheduled through a fixed
	// handler object, and processed items wait by value in the then lane
	// (completion instants on the worker's core never decrease), so a
	// worker's steady state allocates nothing per event.
	pollH workerPollH[T]
	then  *Lane[T]

	// Stats.
	Enqueued   uint64
	Processed  uint64
	Dropped    uint64
	MaxDepth   int
	PollRounds uint64
}

// workerPollH schedules a worker's poll rounds without closure allocation.
type workerPollH[T any] struct{ w *Worker[T] }

// Handle implements Handler.
func (p *workerPollH[T]) Handle(any, Time) { p.w.poll() }

// NewWorker returns a worker bound to core with a per-item cost function and
// downstream delivery fn.
func NewWorker[T any](name string, core *Core, sched *Scheduler, cost func(T) Duration, then func(T, Time)) *Worker[T] {
	return &Worker[T]{
		Name:  name,
		Core:  core,
		Sched: sched,
		Cost:  cost,
		Then:  then,
	}
}

// Len returns the current queue depth.
func (w *Worker[T]) Len() int { return len(w.queue) - w.head }

// StealQueue removes and returns every queued item (nil when empty). The
// overload watchdog uses it to re-steer work pending on a stalled core; any
// already-scheduled poll simply finds an empty queue and returns. Stolen
// items keep their Enqueued accounting — the thief re-enqueues them on
// another worker, which counts them there.
//
// The returned slice is the worker's own queue buffer (its spare buffer
// takes over as the live queue), not a copy: the caller must consume it
// before this worker is stolen from again, which the single-threaded
// simulation guarantees for any caller that drains the batch synchronously
// — as the watchdog does. Re-enqueueing while iterating is safe, onto any
// worker: this one now appends into its spare buffer.
func (w *Worker[T]) StealQueue() []T {
	if w.Len() == 0 {
		return nil
	}
	buf := w.queue
	out := buf[w.head:]
	w.queue, w.head = w.spare[:0], 0
	w.spare = buf[:0] // recycle the buffer once the caller is done with it
	return out
}

// Idle reports whether the worker has no queued items and no pending poll —
// i.e. the next enqueue will raise it from idle (costing an IRQ in stages
// that model interrupt-driven wakeup).
func (w *Worker[T]) Idle() bool { return w.Len() == 0 && !w.scheduled }

// Enqueue appends an item to the worker's queue, scheduling a poll round if
// the worker is idle. It reports whether the item was accepted (false means
// the bounded queue was full and the item was dropped).
func (w *Worker[T]) Enqueue(item T) bool {
	if w.Gate != nil && !w.Gate(item) {
		return false
	}
	if w.Cap > 0 && w.Len() >= w.Cap {
		w.Dropped++
		return false
	}
	w.queue = append(w.queue, item)
	w.Enqueued++
	if d := w.Len(); d > w.MaxDepth {
		w.MaxDepth = d
	}
	w.kick()
	return true
}

// pollHandler returns the worker's poll event handler, binding it lazily so
// literal-constructed workers work too.
func (w *Worker[T]) pollHandler() *workerPollH[T] {
	if w.pollH.w == nil {
		w.pollH.w = w
	}
	return &w.pollH
}

// kick schedules a poll round if one is not already pending.
func (w *Worker[T]) kick() {
	if w.scheduled || w.Len() == 0 {
		return
	}
	w.scheduled = true
	w.Sched.AfterHandler(w.WakeDelay, w.pollHandler(), nil)
}

func (w *Worker[T]) poll() {
	if f := w.Core.FreeAt(); f > w.Sched.Now() {
		// The core is still running earlier work (another softirq or an
		// earlier poll round): run when it frees up. The batch is then
		// snapshotted at execution time, so everything that accumulated
		// meanwhile is drained together — NAPI's natural batching under
		// load.
		w.Sched.AtHandler(f, w.pollHandler(), nil)
		return
	}
	w.scheduled = false
	if w.Len() == 0 {
		return
	}
	w.PollRounds++
	budget := w.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	n := w.Len()
	if n > budget {
		n = budget
	}
	// The batch is the queue's head, taken in place: items enqueued while it
	// is processed append past it, and its slots are reclaimed only by the
	// compact that ends this round — batches never outlive their poll.
	batch := w.queue[w.head : w.head+n : w.head+n]
	w.head += n

	if w.PollOverhead > 0 {
		if w.pollTag == "" {
			w.pollTag = w.Name + "/poll"
		}
		w.Core.Exec(w.PollOverhead, w.pollTag)
	}
	if w.ProcessBatch != nil {
		w.ProcessBatch(batch)
	} else {
		if w.then == nil {
			w.then = NewLane(w.Sched, w.deliver)
		}
		for _, item := range batch {
			start, end := w.Core.Exec(w.Cost(item), w.Name)
			w.Processed++
			if w.ServeLog != nil {
				w.ServeLog(item, start, end)
			}
			if w.Then != nil {
				w.then.At(end, item)
			}
		}
	}
	w.compact()
	switch {
	case w.Len() > 0:
		// NAPI re-arm: keep polling once the work charged so far is
		// done. The +1 yields to any sibling worker already waiting on
		// this core at the exact free instant, giving the round-robin
		// fairness softirqs have (without it a hot stage starves its
		// same-core neighbours).
		w.scheduled = true
		w.Sched.AtHandler(w.Core.FreeAt().Add(1), w.pollHandler(), nil)
	case w.IdleGrace > 0:
		// Stay armed briefly: arrivals within the grace window are
		// polled without a fresh wakeup (interrupt moderation).
		w.scheduled = true
		w.Sched.AtHandler(w.Core.FreeAt().Add(w.IdleGrace), w.pollHandler(), nil)
	}
}

// deliver hands one processed item downstream at its completion instant.
func (w *Worker[T]) deliver(item T, now Time) { w.Then(item, now) }

// compact reclaims the consumed prefix of the queue buffer: in full (no
// copy) when the queue has drained, and by sliding the backlog down once
// the head passes half the queue's length, so the copying costs at most one
// move per consumed item. Called only at the end of a poll round, when no
// batch is live.
func (w *Worker[T]) compact() {
	switch {
	case w.head == 0:
	case w.head == len(w.queue):
		w.queue, w.head = w.queue[:0], 0
	case w.head >= len(w.queue)/2:
		w.queue = w.queue[:copy(w.queue, w.queue[w.head:])]
		w.head = 0
	}
}
