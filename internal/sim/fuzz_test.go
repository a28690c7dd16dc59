package sim

import (
	"testing"
)

// The differential fuzz harness drives the production scheduler and a naive
// reference implementation through the same randomized op tape — interleaved
// AtHandler/Lane.At/Stop/RunUntil issued both at the top level and from
// inside firing handlers — and asserts identical callback order, fire times,
// clock readings and pending counts. The reference schedules every lane
// entry as its own event in a flat list popped by linear minimum scan:
// trivially correct, sharing no code with the heap, the inline slot or the
// lanes.

// fuzzLanes is the number of lanes the tape feeds.
const fuzzLanes = 2

// fuzzEntry is one (id, at) lane entry handed to either scheduler.
type fuzzEntry struct {
	id int
	at Time
}

// fuzzSched is the op surface the driver exercises on both implementations.
type fuzzSched interface {
	now() Time
	at(t Time, id int)
	laneAt(lane int, entries []fuzzEntry)
	runUntil(t Time) Time
	stop()
	pending() int
}

// fireRec is one observed dispatch.
type fireRec struct {
	id int
	at Time
}

// fuzzDriver decodes the op tape against one scheduler and records what it
// observes. Nested ops (issued when an event fires) are a pure function of
// the firing event's id, so both sides issue identical nested ops as long
// as their dispatch behaviour matches — and any divergence fails the
// comparison outright.
type fuzzDriver struct {
	data     []byte
	s        fuzzSched
	log      []fireRec
	clocks   []Time
	pendings []int
	nextID   int
	laneLast [fuzzLanes]Time // each lane's latest entry time
}

// laneEntries builds k entries for a lane starting no earlier than its
// previous entry or the current instant, spaced by gap(i) — lanes only
// accept non-decreasing times.
func (d *fuzzDriver) laneEntries(lane, k int, gap func(i int) Duration) []fuzzEntry {
	at := d.s.now()
	if last := d.laneLast[lane]; last > at {
		at = last
	}
	ents := make([]fuzzEntry, k)
	for i := range ents {
		at = at.Add(gap(i))
		d.nextID++
		ents[i] = fuzzEntry{id: d.nextID, at: at}
	}
	d.laneLast[lane] = at
	return ents
}

// fire records a dispatch and possibly issues a nested op derived from the
// event's id.
func (d *fuzzDriver) fire(id int, now Time) {
	d.log = append(d.log, fireRec{id, now})
	if len(d.data) == 0 || len(d.log) > 4096 {
		return
	}
	b := d.data[id%len(d.data)]
	switch b % 8 {
	case 0:
		d.nextID++
		d.s.at(now.Add(Duration(b%16)), d.nextID)
	case 1:
		lane := int(b/8) % fuzzLanes
		d.s.laneAt(lane, d.laneEntries(lane, 2+int(b%3), func(i int) Duration {
			return Duration((int(b) + i) % 5)
		}))
	case 2:
		d.s.stop()
	}
}

// run decodes and executes the tape, then drains.
func (d *fuzzDriver) run() {
	pos := 0
	next := func() byte {
		if pos >= len(d.data) {
			return 0
		}
		b := d.data[pos]
		pos++
		return b
	}
	for ops := 0; ops < 64 && pos < len(d.data); ops++ {
		switch next() % 4 {
		case 0:
			d.nextID++
			d.s.at(d.s.now().Add(Duration(next()%32)), d.nextID)
		case 1:
			b := next()
			lane := int(b/8) % fuzzLanes
			d.s.laneAt(lane, d.laneEntries(lane, 1+int(b%8), func(int) Duration {
				return Duration(next() % 8)
			}))
		case 2:
			d.clocks = append(d.clocks, d.s.runUntil(d.s.now().Add(Duration(next()%64))))
			d.pendings = append(d.pendings, d.s.pending())
		case 3:
			d.s.stop()
		}
	}
	// Drain twice: a Stop fired by the final event leaves leftovers the
	// first call must park on and the second must clear.
	d.clocks = append(d.clocks, d.s.runUntil(Time(1<<40)))
	d.clocks = append(d.clocks, d.s.runUntil(Time(1<<40)))
	d.pendings = append(d.pendings, d.s.pending())
}

// realSched adapts the production Scheduler (heap + inline slot + lanes)
// to the fuzz surface.
type realSched struct {
	s     *Scheduler
	d     *fuzzDriver
	lanes [fuzzLanes]*Lane[int]
}

func newRealSched(d *fuzzDriver, eager bool) *realSched {
	r := &realSched{s: newSched(eager), d: d}
	for i := range r.lanes {
		r.lanes[i] = NewLane(r.s, d.fire)
	}
	return r
}

// realFireH dispatches single events (arg int) into the driver.
type realFireH struct{ r *realSched }

func (h realFireH) Handle(arg any, now Time) { h.r.d.fire(arg.(int), now) }

func (r *realSched) now() Time            { return r.s.Now() }
func (r *realSched) at(t Time, id int)    { r.s.AtHandler(t, realFireH{r}, id) }
func (r *realSched) runUntil(t Time) Time { return r.s.RunUntil(t) }
func (r *realSched) stop()                { r.s.Stop() }
func (r *realSched) pending() int         { return r.s.Pending() }

func (r *realSched) laneAt(lane int, entries []fuzzEntry) {
	for _, e := range entries {
		r.lanes[lane].At(e.at, e.id)
	}
}

// refSched is the naive reference: a flat event list, one event per entry,
// popped by linear (at, seq) minimum scan.
type refSched struct {
	clock   Time
	seq     uint64
	evts    []fireRec // at carries the fire time; seq is the slice entry below
	seqs    []uint64
	stopped bool
	d       *fuzzDriver
}

func (r *refSched) now() Time { return r.clock }

func (r *refSched) at(t Time, id int) {
	if t < r.clock {
		t = r.clock
	}
	r.seq++
	r.evts = append(r.evts, fireRec{id, t})
	r.seqs = append(r.seqs, r.seq)
}

func (r *refSched) laneAt(_ int, entries []fuzzEntry) {
	for _, e := range entries {
		r.at(e.at, e.id)
	}
}

func (r *refSched) stop()        { r.stopped = true }
func (r *refSched) pending() int { return len(r.evts) }

func (r *refSched) runUntil(until Time) Time {
	r.stopped = false
	if until < r.clock {
		return r.clock
	}
	for len(r.evts) > 0 && !r.stopped {
		min := 0
		for i := 1; i < len(r.evts); i++ {
			if r.evts[i].at < r.evts[min].at ||
				(r.evts[i].at == r.evts[min].at && r.seqs[i] < r.seqs[min]) {
				min = i
			}
		}
		e := r.evts[min]
		if e.at > until {
			r.clock = until
			return r.clock
		}
		r.evts = append(r.evts[:min], r.evts[min+1:]...)
		r.seqs = append(r.seqs[:min], r.seqs[min+1:]...)
		r.clock = e.at
		r.d.fire(e.id, r.clock)
	}
	return r.clock
}

// FuzzSchedulerRuns differentially fuzzes lane emission, on lazy and eager
// schedulers, against the naive reference.
func FuzzSchedulerRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5})
	f.Add([]byte{1, 3, 0, 2, 4, 2, 10})
	f.Add([]byte{1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 2, 63, 1, 2, 1, 1, 1, 3, 20})
	f.Add([]byte{0, 9, 3, 1, 4, 0, 2, 2, 1, 3, 2, 8, 16, 24, 2, 40, 3, 0, 1})
	f.Add([]byte{2, 0, 2, 0, 1, 0, 0, 2, 5, 1, 5, 5, 5, 5, 5, 5, 2, 63, 2, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := &fuzzDriver{data: data}
		fs := &refSched{d: ref}
		ref.s = fs
		ref.run()

		for _, eager := range []bool{false, true} {
			fuzzOne(t, data, ref, eager)
		}
	})
}

// fuzzOne runs the tape on the production scheduler in the given mode,
// compares it with the reference's observations, then drains it completely
// and checks that every slab slot came back.
func fuzzOne(t *testing.T, data []byte, ref *fuzzDriver, eager bool) {
	real := &fuzzDriver{data: data}
	rs := newRealSched(real, eager)
	real.s = rs
	real.run()

	if len(real.log) != len(ref.log) {
		t.Fatalf("eager=%v: dispatch counts differ: real %d ref %d", eager, len(real.log), len(ref.log))
	}
	for i := range real.log {
		if real.log[i] != ref.log[i] {
			t.Fatalf("eager=%v: dispatch %d differs: real %+v ref %+v", eager, i, real.log[i], ref.log[i])
		}
	}
	for i := range real.clocks {
		if real.clocks[i] != ref.clocks[i] {
			t.Fatalf("eager=%v: clock %d differs: real %d ref %d", eager, i, real.clocks[i], ref.clocks[i])
		}
	}
	for i := range real.pendings {
		if real.pendings[i] != ref.pendings[i] {
			t.Fatalf("eager=%v: pending %d differs: real %d ref %d", eager, i, real.pendings[i], ref.pendings[i])
		}
	}

	// Stops fired by the tape can leave work behind even after its double
	// drain; nested ops cease once the log passes its cap, so this ends.
	for rs.s.Pending() > 0 {
		rs.s.Run()
	}
	if leak := slabLeak(rs.s); leak != "" {
		t.Fatalf("eager=%v: %s", eager, leak)
	}
}
