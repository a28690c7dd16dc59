package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExport drives the command end to end: it prints per-segment
// journeys and writes a Perfetto timeline that parses as trace-event JSON
// with both the core and the flow tracks.
func TestRunExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-segs", "2", "-export", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"flow 1 seq 0:", "flow 1 seq 1:", "socket", "per-core stage occupancy", "exported"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
	}
	if !pids[1] || !pids[2] {
		t.Errorf("export lacks the core (pid 1) or flow (pid 2) tracks: pids %v", pids)
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-system", "nope"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

// TestRunRejectsUnknownProto: a transport the simulator does not model is
// an error, not a silent TCP trace.
func TestRunRejectsUnknownProto(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-proto", "sctp"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), "sctp") {
		t.Errorf("stdout %q, stderr %q: want no trace and the bad name reported", out.String(), errb.String())
	}
}
