package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunLive drives one probed run end to end with tiny windows: the
// breakdown table and trigger summary print, and the flight-recorder
// export parses as trace-event JSON holding at least one snapshot (RPS/UDP
// overruns its backlogs within a millisecond).
func TestRunLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	var out, errb bytes.Buffer
	args := []string{"-system", "rps", "-proto", "udp", "-warmup-ms", "1", "-measure-ms", "1", "-perfetto", path}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"== breakdown-rps-UDP", "kind", "slowest packets", "flight-recorder triggers:", "drop-backlog"} {
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
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	triggers := 0
	for _, e := range doc.TraceEvents {
		if e.Cat == "flight-trigger" {
			triggers++
		}
	}
	if triggers == 0 {
		t.Error("export holds no flight snapshot")
	}
}

// TestRunFig7 renders the causal Fig. 7 comparison with tiny windows.
func TestRunFig7(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "7", "-warmup-ms", "1", "-measure-ms", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"== fig7-causal", "reorder-wait us", "== breakdown-mflow-TCP", "== breakdown-rps-TCP"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "99"},
		{"-proto", "sctp"},
		{"-chaos", "meteor"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestCompareAgainst diffs two artifact files: an identical copy passes,
// and a copy with one edited record field fails, naming the field.
func TestCompareAgainst(t *testing.T) {
	base, err := os.ReadFile("../../BENCH_all.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	same := filepath.Join(dir, "same.json")
	edited := filepath.Join(dir, "edited.json")
	if err := os.WriteFile(same, base, 0o644); err != nil {
		t.Fatal(err)
	}
	// The first run record's p99 latency, with a 1 prefixed to its digits.
	data := bytes.Replace(base, []byte(`"latency_p99_us": `), []byte(`"latency_p99_us": 1`), 1)
	if err := os.WriteFile(edited, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-compare", same, "-against", "../../BENCH_all.json"}, &out, &errb); code != 0 {
		t.Fatalf("identical copy: exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-compare", edited, "-against", "../../BENCH_all.json"}, &out, &errb); code != 1 {
		t.Fatalf("edited copy: exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "latency_p99_us") {
		t.Errorf("drift report does not name the edited field:\n%s", errb.String())
	}
}
