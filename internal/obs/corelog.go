package obs

import "mflow/internal/sim"

// DefaultMaxIntervals bounds a CoreLog's memory: a 2ms traced window at
// ~10 executions per skb stays well under this.
const DefaultMaxIntervals = 1 << 20

// Interval is one contiguous span of work charged to a core: the simulated
// execution of one device/softirq cost on one CPU. Host and Core together
// identify the CPU (every host numbers its cores from 0).
type Interval struct {
	Host       int
	Core       int
	Tag        string
	Start, End sim.Time
}

// CoreLog collects per-core busy intervals from sim.Core execution, the raw
// material for the Perfetto timeline's one-track-per-core view. It is a
// plain sink: the run's probe wiring feeds it from each core's ExecLog.
type CoreLog struct {
	// MaxIntervals bounds memory (default DefaultMaxIntervals); further
	// executions are counted in Skipped. A zero-value CoreLog is usable.
	MaxIntervals int
	// Intervals holds the recorded spans in execution order.
	Intervals []Interval
	// Skipped counts executions dropped once the cap was reached.
	Skipped uint64
}

// Add records one interval. A nil log ignores it.
func (l *CoreLog) Add(iv Interval) {
	if l == nil {
		return
	}
	max := l.MaxIntervals
	if max <= 0 {
		max = DefaultMaxIntervals
	}
	if len(l.Intervals) >= max {
		l.Skipped++
		return
	}
	l.Intervals = append(l.Intervals, iv)
}
