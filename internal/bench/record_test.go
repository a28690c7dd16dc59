package bench

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mflow/internal/sim"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// fastRunner keeps the full-figure tests affordable: the matrices are what
// matter, not statistical stability.
func fastRunner() *Runner {
	return &Runner{Warmup: 1 * sim.Millisecond, Measure: 2 * sim.Millisecond, Seed: 42}
}

// TestPlansCoverFigures pins each figure's recorded plan (record.go) to
// the runs the figure actually consumes: building the figure serially on a
// fresh Runner must store exactly the recorded keys, in recorded order,
// with the recorded runs observed. It is the guard for the invariant the
// recording relies on — no builder's key set may depend on a result — so
// a builder that branched on one fails here instead of silently
// prefetching the wrong matrix or reordering the artifact.
func TestPlansCoverFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure")
	}
	for _, fig := range Figures {
		if fig == "all" {
			continue // union of the others; covered piecewise
		}
		fig := fig
		t.Run(fig, func(t *testing.T) {
			t.Parallel()
			r := fastRunner()
			if _, err := r.Tables(fig); err != nil {
				t.Fatal(err)
			}
			var runs, observed, web, caching []string
			for _, k := range r.stored {
				switch res, ok := r.cache[k]; {
				case ok:
					runs = append(runs, k)
					if res.Obs != nil {
						observed = append(observed, k)
					}
				case r.webs[k] != nil:
					web = append(web, k)
				default:
					caching = append(caching, k)
				}
			}
			rec := fastRunner().recordingFor(fig)
			var recRuns, recObserved, recWeb, recCaching []string
			for _, run := range rec.runs {
				recRuns = append(recRuns, run.key)
				if run.observed {
					recObserved = append(recObserved, run.key)
				}
			}
			for _, cfg := range rec.web {
				recWeb = append(recWeb, webKey(cfg))
			}
			for _, cfg := range rec.caching {
				recCaching = append(recCaching, cachingKey(cfg))
			}
			for _, c := range []struct {
				what      string
				built, rc []string
			}{
				{"overlay runs", runs, recRuns},
				{"observed runs", observed, recObserved},
				{"web runs", web, recWeb},
				{"caching runs", caching, recCaching},
			} {
				if !reflect.DeepEqual(c.built, c.rc) {
					t.Errorf("%s: recording diverged from the serial build\n--- built ---\n%s\n--- recorded ---\n%s",
						c.what, strings.Join(c.built, "\n"), strings.Join(c.rc, "\n"))
				}
			}
		})
	}
}

// renderAll builds fig with the given worker count and returns the full
// text rendering plus the artifact JSON bytes.
func renderAll(t *testing.T, fig string, workers int) (string, []byte) {
	t.Helper()
	r := fastRunner()
	r.Parallel = workers
	text, a := render(t, r, fig)
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return text, buf.Bytes()
}

// render builds fig on r and returns the text rendering and the artifact.
func render(t *testing.T, r *Runner, fig string) (string, *Artifact) {
	t.Helper()
	tables, err := r.Tables(fig)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, tab := range tables {
		text.WriteString(tab.Render())
		text.WriteByte('\n')
	}
	return text.String(), r.Artifact(fig, tables)
}

// TestParallelMatchesSerialGolden is the harness's headline guarantee:
// for the same seed and windows, an 8-worker run renders byte-identical
// tables and artifact JSON to a serial run. The figures chosen cover the
// sweep cache (4), a single-table matrix (7), observed runs (queues), the
// app benchmarks (13), shared-scenario dedup across builders (12) and a
// request order that differs from table order (ablations).
func TestParallelMatchesSerialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several figures twice")
	}
	for _, fig := range []string{"4", "7", "12", "13", "queues", "ablations"} {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			t.Parallel()
			serialText, serialJSON := renderAll(t, fig, 1)
			parText, parJSON := renderAll(t, fig, 8)
			if serialText != parText {
				t.Errorf("parallel table rendering diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialText, parText)
			}
			if !bytes.Equal(serialJSON, parJSON) {
				t.Errorf("parallel artifact JSON diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialJSON, parJSON)
			}
		})
	}
}

// TestPrefetchKeepsProbes pins probe-purity under the worker pool: with
// Causal set, the runs Prefetch executes carry the same causal breakdowns a
// serial build records, so a parallel probed artifact is byte-identical to
// the serial one and every record has a breakdown.
func TestPrefetchKeepsProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig 8 twice")
	}
	var texts [2]string
	var arts [2][]byte
	for i, workers := range []int{1, 2} {
		r := fastRunner()
		r.Parallel, r.Causal = workers, true
		text, a := render(t, r, "8")
		for _, rec := range a.Runs {
			if len(rec.Breakdown) == 0 {
				t.Errorf("Parallel=%d: record %s has no causal breakdown", workers, rec.Name)
			}
		}
		var buf bytes.Buffer
		if err := a.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		texts[i], arts[i] = text, buf.Bytes()
	}
	if texts[0] != texts[1] {
		t.Errorf("probed parallel tables diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", texts[0], texts[1])
	}
	if !bytes.Equal(arts[0], arts[1]) {
		t.Error("probed parallel artifact JSON diverged from serial")
	}
}

// TestRunnerSharedAcrossFigures exercises the shared-state fix: one Runner
// building several figures from concurrent goroutines (with a Prefetch
// racing alongside) must not trip the race detector and must produce the
// same tables as a serial build. Run with -race to get the full check.
func TestRunnerSharedAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several figures concurrently")
	}
	figs := []string{"7", "12", "queues"}

	serial := map[string]string{}
	rs := fastRunner()
	for _, fig := range figs {
		tables, err := rs.Tables(fig)
		if err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		for _, tab := range tables {
			text.WriteString(tab.Render())
		}
		serial[fig] = text.String()
	}

	r := fastRunner()
	r.Parallel = 4
	got := make([]string, len(figs))
	var wg sync.WaitGroup
	wg.Add(len(figs) + 1)
	go func() {
		defer wg.Done()
		r.Prefetch(figs...)
	}()
	for i, fig := range figs {
		i, fig := i, fig
		go func() {
			defer wg.Done()
			tables, err := r.Tables(fig)
			if err != nil {
				t.Error(err)
				return
			}
			var text strings.Builder
			for _, tab := range tables {
				text.WriteString(tab.Render())
			}
			got[i] = text.String()
		}()
	}
	wg.Wait()
	for i, fig := range figs {
		if got[i] != serial[fig] {
			t.Errorf("fig %s: concurrent build diverged from serial:\n--- serial ---\n%s\n--- concurrent ---\n%s", fig, serial[fig], got[i])
		}
	}
}

// TestCompareFlagsRegressions checks the artifact regression gate end to
// end: identical artifacts pass, a >tolerance throughput drop is flagged.
func TestCompareFlagsRegressions(t *testing.T) {
	r := fastRunner()
	tables, err := r.Tables("7")
	if err != nil {
		t.Fatal(err)
	}
	baseline := r.Artifact("7", tables)
	current := r.Artifact("7", tables)
	if regs := Compare(baseline, current, 0.10); len(regs) != 0 {
		t.Fatalf("identical artifacts flagged: %v", regs)
	}
	current.Runs[0].Gbps = baseline.Runs[0].Gbps * 0.5
	regs := Compare(baseline, current, 0.10)
	if len(regs) != 1 {
		t.Fatalf("want 1 regression, got %d: %v", len(regs), regs)
	}
	if regs[0].Key != baseline.Runs[0].Key || regs[0].Metric != "gbps" {
		t.Errorf("wrong regression flagged: %+v", regs[0])
	}
	// A drop within tolerance passes.
	current.Runs[0].Gbps = baseline.Runs[0].Gbps * 0.95
	if regs := Compare(baseline, current, 0.10); len(regs) != 0 {
		t.Errorf("5%% drop within 10%% tolerance flagged: %v", regs)
	}
}

// TestArtifactRoundTrip pins WriteJSON/LoadArtifact symmetry and the
// schema check.
func TestArtifactRoundTrip(t *testing.T) {
	r := fastRunner()
	tables, err := r.Tables("7")
	if err != nil {
		t.Fatal(err)
	}
	a := r.Artifact("7", tables)
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCH_7.json"
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != len(a.Runs) || back.Figure != "7" || back.Seed != 42 {
		t.Errorf("round trip mangled artifact: %d runs, fig %q, seed %d", len(back.Runs), back.Figure, back.Seed)
	}
	var rewrote bytes.Buffer
	if err := back.WriteJSON(&rewrote); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), rewrote.Bytes()) {
		t.Error("re-encoding a loaded artifact changed its bytes")
	}
	// Wrong schema is refused.
	if err := writeFile(path, bytes.Replace(buf.Bytes(), []byte(ArtifactSchema), []byte("mflow-bench/v0"), 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(path); err == nil {
		t.Error("mismatched schema accepted")
	}
}
