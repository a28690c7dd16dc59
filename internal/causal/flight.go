// Anomaly-triggered flight recorder: a fixed-size ring of recent core
// executions per core, snapshotted deterministically (simulated-time only —
// no wall clocks) when an anomaly fires: a drop, an RTO, a reassembler
// gap-timeout, or a wire corruption. Snapshots export as Perfetto
// flow-annotated slices that load alongside the observability layer's
// per-core and per-flow tracks.
package causal

import (
	"fmt"
	"io"
	"sort"

	"mflow/internal/obs"
	"mflow/internal/sim"
)

// DefaultRingSize is the per-core event ring capacity when
// FlightRecorder.RingSize is unset.
const DefaultRingSize = 256

// DefaultMaxSnapshots bounds retained snapshots when MaxSnapshots is unset
// (triggers past the bound still count, they just stop snapshotting — the
// first anomalies are the diagnostic ones).
const DefaultMaxSnapshots = 16

// FlightEvent is one core execution interval captured in a ring.
type FlightEvent struct {
	Tag   string
	Start sim.Time
	End   sim.Time
}

// CoreRing is one core's fixed-capacity overwrite-oldest buffer of
// FlightEvents. All methods tolerate a nil receiver.
type CoreRing struct {
	host, core int
	buf        []FlightEvent
	next       int
	full       bool
}

// Push records one execution interval; its signature matches
// sim.Core.ExecLog.
func (r *CoreRing) Push(tag string, start, end sim.Time) {
	if r == nil {
		return
	}
	r.buf[r.next] = FlightEvent{Tag: tag, Start: start, End: end}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns the ring's contents oldest-first.
func (r *CoreRing) snapshot() []FlightEvent {
	if !r.full {
		return append([]FlightEvent(nil), r.buf[:r.next]...)
	}
	out := make([]FlightEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// CoreSnapshot is one core's recent-execution window at trigger time.
type CoreSnapshot struct {
	Host   int
	Core   int
	Events []FlightEvent
}

// Snapshot is the flight recorder's capture of one anomaly: what every core
// was running just before it fired. Cores are in ascending (host, core)
// order.
type Snapshot struct {
	// Kind names the trigger ("drop-ring", "drop-backlog", "drop-sock",
	// "drop-split", "rto", "gap-timeout", "corruption").
	Kind string
	// Pkt / Flow identify the packet the anomaly hit (Pkt 0 when the
	// trigger has no single packet, e.g. an RTO).
	Pkt  uint64
	Flow uint64
	At   sim.Time

	Cores []CoreSnapshot
}

// FlightRecorder captures per-core execution history into fixed rings and
// snapshots them on anomaly triggers. It is a plain sink: the run's probe
// wiring creates one ring per core (Ring) and feeds it from that core's
// ExecLog. All methods tolerate a nil receiver.
type FlightRecorder struct {
	// RingSize is the per-core ring capacity (<= 0: DefaultRingSize).
	RingSize int
	// MaxSnapshots bounds retained snapshots (<= 0: DefaultMaxSnapshots).
	MaxSnapshots int

	// Snapshots holds the captures, in trigger order.
	Snapshots []Snapshot
	// Triggers counts every trigger by kind, including ones past the
	// snapshot bound.
	Triggers map[string]uint64

	// rings is kept in ascending (host, core) order.
	rings []*CoreRing
}

// NewFlightRecorder returns a recorder with defaults.
func NewFlightRecorder() *FlightRecorder { return &FlightRecorder{} }

// Ring adds a ring for core of host and returns it (nil on a nil
// recorder). Every snapshot captures every ring.
func (fr *FlightRecorder) Ring(host, core int) *CoreRing {
	if fr == nil {
		return nil
	}
	size := fr.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	r := &CoreRing{host: host, core: core, buf: make([]FlightEvent, size)}
	i := sort.Search(len(fr.rings), func(i int) bool {
		o := fr.rings[i]
		return o.host > host || o.host == host && o.core > core
	})
	fr.rings = append(fr.rings, nil)
	copy(fr.rings[i+1:], fr.rings[i:])
	fr.rings[i] = r
	return r
}

// Trigger records an anomaly. The first MaxSnapshots triggers capture every
// ring (in ascending (host, core) order — deterministic); later triggers
// only count.
func (fr *FlightRecorder) Trigger(kind string, pkt, flow uint64, at sim.Time) {
	if fr == nil {
		return
	}
	if fr.Triggers == nil {
		fr.Triggers = make(map[string]uint64)
	}
	fr.Triggers[kind]++
	max := fr.MaxSnapshots
	if max <= 0 {
		max = DefaultMaxSnapshots
	}
	if len(fr.Snapshots) >= max {
		return
	}
	snap := Snapshot{Kind: kind, Pkt: pkt, Flow: flow, At: at}
	for _, r := range fr.rings {
		snap.Cores = append(snap.Cores, CoreSnapshot{Host: r.host, Core: r.core, Events: r.snapshot()})
	}
	fr.Snapshots = append(fr.Snapshots, snap)
}

// TriggerKinds returns the observed trigger kinds, sorted.
func (fr *FlightRecorder) TriggerKinds() []string {
	if fr == nil {
		return nil
	}
	kinds := make([]string, 0, len(fr.Triggers))
	for k := range fr.Triggers {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ChromeEvents renders every snapshot as Perfetto slices: one process per
// snapshot (pids from obs.PidFlight up, so they sit alongside the existing
// per-core and per-flow tracks), one thread per captured core (tids and
// names as in obs.CoreTid/CoreName, shifted by one) plus a "trigger" thread
// carrying the anomaly instant, and a flow arrow ("s"/"f") linking the
// trigger to the latest execution it interrupted. Deterministic: snapshots
// are in trigger order and cores in (host, core) order.
func (fr *FlightRecorder) ChromeEvents() []obs.ChromeEvent {
	if fr == nil {
		return nil
	}
	var out []obs.ChromeEvent
	usT := func(t sim.Time) float64 { return float64(t) / 1e3 }
	for i, snap := range fr.Snapshots {
		pid := obs.PidFlight + i
		out = append(out, obs.ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("flight %d: %s pkt=%d flow=%d", i, snap.Kind, snap.Pkt, snap.Flow)},
		})
		out = append(out, obs.ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": "trigger"},
		})
		out = append(out, obs.ChromeEvent{
			Name: snap.Kind, Cat: "flight-trigger", Ph: "X",
			Ts: usT(snap.At), Dur: 0.001, Pid: pid, Tid: 0,
			Args: map[string]any{"pkt": snap.Pkt, "flow": snap.Flow},
		})
		out = append(out, obs.ChromeEvent{
			Name: "anomaly", Cat: "flight", Ph: "s", ID: i + 1,
			Ts: usT(snap.At), Pid: pid, Tid: 0,
		})
		// The flow arrow lands on the latest execution captured across
		// all cores (ties: the first in (host, core) order) — "what was
		// running when it fired".
		var latest FlightEvent
		latestTid := int64(-1)
		for _, cs := range snap.Cores {
			tid := obs.CoreTid(cs.Host, cs.Core) + 1
			out = append(out, obs.ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": obs.CoreName(cs.Host, cs.Core)},
			})
			for _, e := range cs.Events {
				out = append(out, obs.ChromeEvent{
					Name: e.Tag, Cat: "flight", Ph: "X",
					Ts: usT(e.Start), Dur: usT(e.End) - usT(e.Start),
					Pid: pid, Tid: tid,
				})
				if e.End > latest.End || latestTid < 0 {
					latest, latestTid = e, tid
				}
			}
		}
		if latestTid >= 0 {
			out = append(out, obs.ChromeEvent{
				Name: "anomaly", Cat: "flight", Ph: "f", ID: i + 1, BP: "e",
				Ts: usT(latest.Start), Pid: pid, Tid: latestTid,
			})
		}
	}
	return out
}

// Export writes the snapshots as a Chrome/Perfetto JSON trace.
func (fr *FlightRecorder) Export(w io.Writer) error {
	return obs.WriteChromeTrace(w, fr.ChromeEvents())
}
