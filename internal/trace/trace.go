// Package trace records per-packet journeys through the simulated receive
// path: which stage handled each segment on which core at what simulated
// time. Traces are the debugging companion to the aggregate metrics — they
// show a micro-flow fanning out across splitting cores and re-converging at
// the merge point, or a FALCON pipeline hopping cores per device.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"mflow/internal/sim"
)

// Event is one observation of a packet at a pipeline point.
type Event struct {
	At sim.Time
	// Pkt is the NIC's monotonic arrival id (skb.PktID). It is the only
	// identity that survives skb.Pool reuse and distinguishes a
	// retransmission from the original: (FlowID, Seq) repeats across
	// both, a pooled *skb.SKB pointer aliases unrelated packets, but Pkt
	// is unique per physical arrival. 0 means the recording point had no
	// arrival id (synthetic events).
	Pkt    uint64
	FlowID uint64
	Seq    uint64
	Segs   int
	// Stage names the pipeline point ("nic", "alloc", "vxlan", "merge",
	// "socket", ...); Core is the CPU it ran on (-1 if not applicable) and
	// Host that CPU's host index (0 on single-host runs).
	Stage string
	Host  int
	Core  int
}

// DefaultMaxEvents is the event cap applied when Tracer.MaxEvents is unset.
const DefaultMaxEvents = 65536

// Tracer collects events up to a cap (tracing every packet of a long run
// would dwarf the simulation itself). The zero value is a usable tracer
// with the default cap and no filters.
type Tracer struct {
	// MaxEvents bounds memory (<= 0 means DefaultMaxEvents); OnlyFlow,
	// when non-zero, restricts tracing to one flow; OnlySeqBelow, when
	// non-zero, restricts to the first packets of each flow.
	MaxEvents    int
	OnlyFlow     uint64
	OnlySeqBelow uint64

	events  []Event
	Skipped uint64

	// byFlow memoizes events grouped by flow and sorted by time, built on
	// first query (Journey, CoreOccupancy) and invalidated by Record.
	byFlow map[uint64][]Event
}

// New returns a tracer with the default cap.
func New() *Tracer { return &Tracer{} }

// cap returns the effective event cap.
func (t *Tracer) cap() int {
	if t.MaxEvents > 0 {
		return t.MaxEvents
	}
	return DefaultMaxEvents
}

// Record appends an event, subject to the tracer's filters and cap.
func (t *Tracer) Record(at sim.Time, pkt, flowID, seq uint64, segs int, stage string, host, core int) {
	if t == nil {
		return
	}
	if t.OnlyFlow != 0 && flowID != t.OnlyFlow {
		return
	}
	if t.OnlySeqBelow != 0 && seq >= t.OnlySeqBelow {
		return
	}
	if len(t.events) >= t.cap() {
		t.Skipped++
		return
	}
	t.byFlow = nil
	t.events = append(t.events, Event{At: at, Pkt: pkt, FlowID: flowID, Seq: seq, Segs: segs, Stage: stage, Host: host, Core: core})
}

// Events returns everything recorded, in recording order.
func (t *Tracer) Events() []Event { return t.events }

// flowIndex returns events grouped by flow, each group sorted by time
// (stably, so same-instant events keep recording order). The index is built
// once and reused until the next Record.
func (t *Tracer) flowIndex() map[uint64][]Event {
	if t.byFlow == nil {
		m := make(map[uint64][]Event)
		for _, e := range t.events {
			m[e.FlowID] = append(m[e.FlowID], e)
		}
		for _, evs := range m {
			evs := evs
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		}
		t.byFlow = m
	}
	return t.byFlow
}

// Journey returns the events touching segment seq of a flow (an event
// covering [Seq, Seq+Segs) matches), in time order. Repeated queries reuse
// the memoized per-flow index instead of rescanning and re-sorting the full
// event log per call.
func (t *Tracer) Journey(flowID, seq uint64) []Event {
	var out []Event
	for _, e := range t.flowIndex()[flowID] {
		if seq >= e.Seq && seq < e.Seq+uint64(e.Segs) {
			out = append(out, e)
		}
	}
	return out
}

// Stages returns the distinct stage names seen, sorted.
func (t *Tracer) Stages() []string {
	seen := map[string]bool{}
	for _, e := range t.events {
		seen[e.Stage] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// RenderJourney formats one segment's journey as a timeline.
func (t *Tracer) RenderJourney(flowID, seq uint64) string {
	events := t.Journey(flowID, seq)
	if len(events) == 0 {
		return fmt.Sprintf("flow %d seq %d: no events\n", flowID, seq)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flow %d seq %d:\n", flowID, seq)
	t0 := events[0].At
	for _, e := range events {
		fmt.Fprintf(&b, "  +%-12v %-10s core %d\n", e.At.Sub(t0), e.Stage, e.Core)
	}
	return b.String()
}

// CoreOccupancy counts events per core per stage — a quick view of where
// packets were handled. It shares Journey's memoized flow index.
func (t *Tracer) CoreOccupancy() map[int]map[string]int {
	out := map[int]map[string]int{}
	for _, evs := range t.flowIndex() {
		for _, e := range evs {
			m := out[e.Core]
			if m == nil {
				m = map[string]int{}
				out[e.Core] = m
			}
			m[e.Stage]++
		}
	}
	return out
}
