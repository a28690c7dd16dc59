package sim

// Occupancy accounts a queue's depth over simulated time exactly. The queue
// reports every change of depth through Set (Worker does so for its own
// queue), and each change charges the nanoseconds the outgoing depth was
// held. Flush hands the charges to the sinks as (depth, ns) pairs: fed to a
// histogram's RecordN they make its count the nanoseconds observed, its mean
// the exact time-weighted mean depth and its max the true maximum, so a
// burst that fills and drains between two sampling instants still shows.
//
// Between flushes the charges are kept per depth in a dense slice, grown to
// the deepest depth seen, so a change costs one subtraction and one add.
// Occupancy never schedules or draws randomness: observing cannot perturb a
// run.
type Occupancy struct {
	last  Time
	depth int
	held  []uint64 // held[d]: ns spent at depth d since the last Flush
	sinks []func(depth int64, ns uint64)
}

// NewOccupancy starts accounting a queue that holds depth items at now.
func NewOccupancy(now Time, depth int) *Occupancy {
	return &Occupancy{last: now, depth: depth, held: make([]uint64, depth+1)}
}

// Into adds a sink for the flushed (depth, ns) pairs, e.g. a histogram's
// RecordN. Every sink sees the same pairs.
func (o *Occupancy) Into(sink func(depth int64, ns uint64)) { o.sinks = append(o.sinks, sink) }

// Set charges the time since the last change to the outgoing depth and
// makes depth current. now must not precede the previous Set or Flush.
func (o *Occupancy) Set(now Time, depth int) {
	o.held[o.depth] += uint64(now - o.last)
	o.last, o.depth = now, depth
	if depth >= len(o.held) {
		o.grow(depth)
	}
}

// grow extends held to cover depth, at least doubling it.
func (o *Occupancy) grow(depth int) {
	held := make([]uint64, max(depth+1, 2*len(o.held)))
	copy(held, o.held)
	o.held = held
}

// Flush charges the current depth up to now, hands every depth held for a
// nonzero time since the last Flush to the sinks in increasing depth order,
// and clears the charges.
func (o *Occupancy) Flush(now Time) {
	o.Set(now, o.depth)
	for d, ns := range o.held {
		if ns == 0 {
			continue
		}
		for _, sink := range o.sinks {
			sink(int64(d), ns)
		}
		o.held[d] = 0
	}
}
