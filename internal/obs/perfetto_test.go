package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"mflow/internal/sim"
	"mflow/internal/trace"
)

// TestExportChromeTraceRoundTrip round-trips the exporter's output through
// encoding/json and checks the trace-event fields Perfetto requires
// (ph/ts/pid), per the acceptance criterion.
func TestExportChromeTraceRoundTrip(t *testing.T) {
	tr := trace.New()
	tr.Record(1000, 0, 1, 0, 1, "nic", 0, 1)
	tr.Record(2500, 0, 1, 0, 1, "vxlan", 0, 2)
	tr.Record(3000, 0, 2, 0, 4, "gro", 0, 1)

	log := &CoreLog{}
	log.Add(Interval{Core: 1, Tag: "alloc", Start: 500, End: 1500})
	log.Add(Interval{Core: 2, Tag: "vxlan", Start: 1500, End: 4000})

	var buf bytes.Buffer
	if err := ExportChromeTrace(&buf, tr.Events(), log); err != nil {
		t.Fatal(err)
	}

	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	var nX, nI, nM int
	for _, e := range parsed.TraceEvents {
		ph, ok := e["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event missing ph: %v", e)
		}
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("event missing numeric ts: %v", e)
		}
		pid, ok := e["pid"].(float64)
		if !ok || pid <= 0 {
			t.Fatalf("event missing positive pid: %v", e)
		}
		switch ph {
		case "X":
			nX++
			if d, ok := e["dur"].(float64); !ok || d <= 0 {
				t.Errorf("complete event without positive dur: %v", e)
			}
		case "i":
			nI++
		case "M":
			nM++
		}
	}
	if nX != 2 || nI != 3 || nM == 0 {
		t.Errorf("event mix wrong: X=%d i=%d M=%d", nX, nI, nM)
	}

	// Timestamps are microseconds: the 1000ns tracer event lands at ts=1.
	for _, e := range parsed.TraceEvents {
		if e["ph"] == "i" && e["name"] == "nic" {
			if e["ts"].(float64) != 1.0 {
				t.Errorf("ns→µs conversion wrong: ts=%v", e["ts"])
			}
		}
	}
}

// TestExportChromeTraceEmpty exports nothing and still produces a valid,
// loadable document.
func TestExportChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportChromeTrace(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed["traceEvents"].([]any); !ok {
		t.Errorf("traceEvents must be an array even when empty: %v", parsed)
	}
}

func TestCoreLogCap(t *testing.T) {
	l := &CoreLog{MaxIntervals: 2}
	for i := 0; i < 5; i++ {
		l.Add(Interval{Core: 3, Tag: "work", Start: sim.Time(10 * i), End: sim.Time(10*i + 10)})
	}
	if len(l.Intervals) != 2 || l.Skipped != 3 {
		t.Errorf("cap failed: %d intervals, %d skipped", len(l.Intervals), l.Skipped)
	}
	iv := l.Intervals[0]
	if iv.Core != 3 || iv.Tag != "work" || iv.End <= iv.Start {
		t.Errorf("interval wrong: %+v", iv)
	}
}
