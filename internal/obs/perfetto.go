package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mflow/internal/trace"
)

// The exported timeline groups tracks into two synthetic "processes": the
// host CPUs (one thread per core, busy intervals as complete slices) and the
// traced flows (one thread per flow, per-packet stage observations as
// instant events).
const (
	PidCores = 1
	PidFlows = 2
	// PidFlight is the first pid used by the flight recorder's anomaly
	// snapshots (one synthetic process per snapshot, counting up), chosen
	// above the fixed tracks so all exports compose in one timeline.
	PidFlight = 3
)

// ChromeEvent is one entry of the Chrome trace-event JSON format
// (the "JSON Array Format" Perfetto and chrome://tracing both load).
// Timestamps and durations are in microseconds, per the format.
type ChromeEvent struct {
	Name  string  `json:"name,omitempty"`
	Cat   string  `json:"cat,omitempty"`
	Ph    string  `json:"ph"`
	Ts    float64 `json:"ts"`
	Dur   float64 `json:"dur,omitempty"`
	Pid   int     `json:"pid"`
	Tid   int64   `json:"tid"`
	Scope string  `json:"s,omitempty"`
	// ID links flow events ("s"/"t"/"f" phases) into one arrow; BP is the
	// flow binding point ("e" binds to the enclosing slice).
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace-event JSON object.
type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// us converts simulated nanoseconds to the format's microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ChromeTraceEvents converts tracer events plus core busy intervals into
// Chrome trace events: metadata naming the tracks, one "X" complete slice
// per core execution interval, and one "i" instant event per traced packet
// observation on its flow's track. Either input may be nil/empty.
func ChromeTraceEvents(events []trace.Event, log *CoreLog) []ChromeEvent {
	var out []ChromeEvent
	meta := func(pid int, tid int64, key, name string) {
		out = append(out, ChromeEvent{
			Ph: "M", Name: key, Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}

	if log != nil && len(log.Intervals) > 0 {
		meta(PidCores, 0, "process_name", "cores")
		type hostCore struct{ host, core int }
		seen := map[hostCore]bool{}
		var ids []hostCore
		for _, iv := range log.Intervals {
			if k := (hostCore{iv.Host, iv.Core}); !seen[k] {
				seen[k] = true
				ids = append(ids, k)
			}
		}
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].host != ids[j].host {
				return ids[i].host < ids[j].host
			}
			return ids[i].core < ids[j].core
		})
		for _, k := range ids {
			meta(PidCores, CoreTid(k.host, k.core), "thread_name", CoreName(k.host, k.core))
		}
		for _, iv := range log.Intervals {
			out = append(out, ChromeEvent{
				Name: iv.Tag, Cat: "exec", Ph: "X",
				Ts: us(int64(iv.Start)), Dur: us(int64(iv.End.Sub(iv.Start))),
				Pid: PidCores, Tid: CoreTid(iv.Host, iv.Core),
			})
		}
	}

	if len(events) > 0 {
		meta(PidFlows, 0, "process_name", "flows")
		flows := map[uint64]bool{}
		for _, e := range events {
			if !flows[e.FlowID] {
				flows[e.FlowID] = true
				meta(PidFlows, int64(e.FlowID), "thread_name", fmt.Sprintf("flow %d", e.FlowID))
			}
		}
		for _, e := range events {
			args := map[string]any{"seq": e.Seq, "segs": e.Segs, "core": e.Core}
			if e.Host != 0 {
				args["host"] = e.Host
			}
			out = append(out, ChromeEvent{
				Name: e.Stage, Cat: "packet", Ph: "i",
				Ts: us(int64(e.At)), Pid: PidFlows, Tid: int64(e.FlowID),
				Scope: "t", Args: args,
			})
		}
	}
	return out
}

// CoreTid returns the Perfetto thread id of a core's track. Host 0 keeps the
// single-host layout (tid = core id); each other host gets its own tid
// range, so hosts that reuse core ids never share a track.
func CoreTid(host, core int) int64 { return int64(host)<<16 | int64(core) }

// CoreName returns the display name of a core's track: "core N" on host 0,
// "hH core N" elsewhere (the same host prefix the metric registry uses).
func CoreName(host, core int) string {
	if host == 0 {
		return fmt.Sprintf("core %d", core)
	}
	return fmt.Sprintf("h%d core %d", host, core)
}

// WriteChromeTrace writes an arbitrary event slice as a loadable
// Chrome/Perfetto trace object — the serialization shared by every
// exporter (nil events become an empty array, never null).
func WriteChromeTrace(w io.Writer, events []ChromeEvent) error {
	t := chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"}
	if t.TraceEvents == nil {
		t.TraceEvents = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// ExportChromeTrace writes events and core intervals as a Chrome
// trace-event JSON object loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing.
func ExportChromeTrace(w io.Writer, events []trace.Event, log *CoreLog) error {
	return WriteChromeTrace(w, ChromeTraceEvents(events, log))
}
