package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"
)

// tracer keeps the benchmark's spans in memory until the run ends. Spans
// wrap the benchmark's own calls into the program: each rep, each
// overlay.Run/RunProbed or bench.Runner call, and each correctness check.
// A nil tracer records nothing, so untraced reps pay one branch per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Spans of one scenario share its key as id;
// parent is the id of the rep that made the call.
type span struct {
	name, id, parent string
	tid              int
	start, end       time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, id, parent string, tid int) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{name: name, id: id, parent: parent, tid: tid, start: start, end: end})
		t.mu.Unlock()
	}
}

// writeChrome writes the spans in Chrome trace format ("X" complete
// events), loadable in Perfetto. Track 0 holds rep-level calls; track i
// the calls for the rep's i-th scenario.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Nanoseconds()) / 1000,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1000,
			Args: map[string]string{"id": s.id, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// pprofTraces runs `go tool pprof -traces` on a CPU profile and returns its
// text output.
func pprofTraces(profile string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("go tool pprof -traces %s: %w: %s", profile, err, ee.Stderr)
		}
		return "", fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return string(out), nil
}
