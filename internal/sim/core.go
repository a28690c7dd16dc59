package sim

import (
	"math"
)

// Core models one CPU core. A core executes at most one piece of work at a
// time; work submitted while the core is busy starts when the core becomes
// free (FIFO, which matches how a softirq raised on a busy core waits for the
// currently running handler). Execution time can be perturbed by a
// multiplicative jitter and by occasional "interference" spikes that stand in
// for unrelated kernel work preempting the core — the effect the MFLOW paper
// identifies as the source of out-of-order completion across splitting cores.
type Core struct {
	// ID is the core number (purely informational; core 0 conventionally
	// runs the application/delivery thread as in the paper's figures).
	ID int
	// Host is the index of the simulated host the core belongs to (0 on
	// single-host runs). Hosts number their cores from 0, so (Host, ID) is
	// the core's run-wide identity.
	Host int

	// Speed scales all execution costs; 1.0 is nominal. A core with
	// Speed 0.9 takes 1/0.9 times as long for the same work.
	Speed float64

	// JitterAmp is the stddev of the log-normal multiplicative noise
	// applied to each execution (0 disables jitter).
	JitterAmp float64

	// InterferenceProb is the per-execution probability that the core is
	// preempted by unrelated work, adding an exponentially distributed
	// delay with mean InterferenceMean.
	InterferenceProb float64
	InterferenceMean Duration

	// ExecLog, when set, observes every execution interval charged to the
	// core (after speed/jitter/interference adjustment) — the feed of the
	// per-core Perfetto timeline and the flight recorder's rings. Nil costs
	// nothing on the hot path beyond one branch.
	ExecLog func(tag string, start, end Time)

	sched     *Scheduler
	busyUntil Time
	// Tag accounting: tagIdx maps a tag to its slot in tagVals (stable,
	// insertion-ordered), and the (lastTag, lastIdx) memo skips even the
	// map lookup when consecutive Execs charge the same tag — batch loops
	// always do, and the constant tag strings make the equality check a
	// pointer compare.
	tagIdx    map[string]int
	tagVals   []Duration
	lastTag   string
	lastIdx   int
	busyTotal Duration
}

// NewCore returns a core with nominal speed attached to sched.
func NewCore(id int, sched *Scheduler) *Core {
	return &Core{
		ID:      id,
		Speed:   1.0,
		sched:   sched,
		tagIdx:  make(map[string]int),
		lastIdx: -1,
	}
}

// NewCores returns n cores with IDs 0..n-1 attached to sched.
func NewCores(n int, sched *Scheduler) []*Core {
	cores := make([]*Core, n)
	for i := range cores {
		cores[i] = NewCore(i, sched)
	}
	return cores
}

// FreeAt returns the earliest instant at which the core can begin new work.
func (c *Core) FreeAt() Time {
	if c.busyUntil < c.sched.Now() {
		return c.sched.Now()
	}
	return c.busyUntil
}

// adjust applies speed, jitter and interference to a nominal cost.
func (c *Core) adjust(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	f := 1.0 / c.Speed
	if c.JitterAmp > 0 {
		f *= math.Exp(c.JitterAmp * c.sched.Rand.NormFloat64())
	}
	out := Duration(float64(d) * f)
	if c.InterferenceProb > 0 && c.sched.Rand.Float64() < c.InterferenceProb {
		out += Duration(float64(c.InterferenceMean) * c.sched.Rand.ExpFloat64())
	}
	if out < 1 {
		out = 1
	}
	return out
}

// Exec reserves the core for a piece of work costing d (nominal) and returns
// the work's start and completion instants. The reservation begins when the
// core is next free, never before the current instant. The adjusted cost is
// charged to the accounting bucket tag.
func (c *Core) Exec(d Duration, tag string) (start, end Time) {
	start = c.FreeAt()
	adj := c.adjust(d)
	end = start.Add(adj)
	c.busyUntil = end
	if tag != c.lastTag || c.lastIdx < 0 {
		idx, seen := c.tagIdx[tag]
		if !seen {
			idx = len(c.tagVals)
			c.tagVals = append(c.tagVals, 0)
			c.tagIdx[tag] = idx
		}
		c.lastTag, c.lastIdx = tag, idx
	}
	c.tagVals[c.lastIdx] += adj
	c.busyTotal += adj
	if c.ExecLog != nil {
		c.ExecLog(tag, start, end)
	}
	return start, end
}

// BusyTotal returns the cumulative busy time charged to the core.
func (c *Core) BusyTotal() Duration { return c.busyTotal }

// BusyByTag returns a copy of the per-tag busy-time accounting.
func (c *Core) BusyByTag() map[string]Duration {
	out := make(map[string]Duration, len(c.tagIdx))
	for k, idx := range c.tagIdx {
		out[k] = c.tagVals[idx]
	}
	return out
}

// Utilization returns the fraction of the window [since, until] the core was
// busy, based on cumulative busy time captured by the caller: pass the value
// of BusyTotal() at the window start as busyAtSince.
func (c *Core) Utilization(busyAtSince Duration, since, until Time) float64 {
	if until <= since {
		return 0
	}
	return float64(c.busyTotal-busyAtSince) / float64(until.Sub(since))
}
