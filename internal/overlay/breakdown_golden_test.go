package overlay

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mflow/internal/causal"
	"mflow/internal/fault"
	"mflow/internal/obs"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/trace"
)

// update rewrites the golden files under testdata/ instead of comparing
// against them: go test ./internal/overlay/ -run <Test> -update.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (%d vs %d bytes); regenerate with -update if intended:\n--- want ---\n%s\n--- got ---\n%s",
			golden, len(got), len(want), clip(want), clip(got))
	}
}

// clip bounds a golden diff dump so a drifted multi-kilobyte export does
// not flood the test log.
func clip(b []byte) []byte {
	if len(b) > 4096 {
		return append(b[:4096:4096], "\n..."...)
	}
	return b
}

// TestBreakdownGoldens pins causal attribution byte for byte: for every
// paper system × protocol, lossless and under burst loss, the probed run's
// packet outcome counts, Result.Breakdown, the slowest exemplar's timeline
// and the flight recorder's trigger counts, against
// testdata/breakdowns/<system>-<proto>-<chaos>.txt. TestCausalDeterminism
// only compares a run against itself; this pins the attribution against
// the code that produced the goldens. Regenerate with
// go test ./internal/overlay/ -run TestBreakdownGoldens -update
// after an intentional model change.
func TestBreakdownGoldens(t *testing.T) {
	for _, sys := range steering.Systems {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, chaos := range []string{"lossless", "burst"} {
				sc := causalScenario(sys, proto, fault.ChaosProfiles()[chaos])
				name := fmt.Sprintf("%s-%s-%s", sys, proto, chaos)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					checkGolden(t, filepath.Join("testdata", "breakdowns", name+".txt"), []byte(renderAttribution(sc)))
				})
			}
		}
	}
}

// renderAttribution runs sc with the profiler and flight recorder attached
// and renders what they attributed.
func renderAttribution(sc Scenario) string {
	p := causal.NewProfiler()
	fr := causal.NewFlightRecorder()
	res := RunProbed(sc, Probes{Causal: p, Flight: fr})
	var b strings.Builder
	fmt.Fprintf(&b, "packets: %d delivered, %d absorbed, %d dropped, %d violations\n",
		p.DeliveredPkts, p.AbsorbedPkts, p.DroppedPkts, p.Violations())
	b.WriteString(causal.RenderBreakdown(res.Breakdown))
	if ex := p.Exemplars(); len(ex) > 0 {
		b.WriteString("slowest:\n")
		b.WriteString(causal.RenderTimeline(ex[0]))
	}
	for _, k := range fr.TriggerKinds() {
		fmt.Fprintf(&b, "trigger %s: %d\n", k, fr.Triggers[k])
	}
	return b.String()
}

// TestPerfettoGolden pins the single-host Perfetto timeline mflowtrace
// -export writes — per-core busy tracks from the CoreLog plus per-flow
// packet tracks from the Tracer, traced with mflowtrace's filters — against
// testdata/breakdowns/perfetto-mflow-tcp.json. The window is cut to 50+50us
// to keep the golden small. Regenerate with
// go test ./internal/overlay/ -run TestPerfettoGolden -update.
func TestPerfettoGolden(t *testing.T) {
	tr := trace.New()
	tr.OnlyFlow, tr.OnlySeqBelow = 1, 4+256
	clog := &obs.CoreLog{}
	Run(Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
		Tracer: tr, CoreLog: clog,
		Warmup: 50 * sim.Microsecond, Measure: 50 * sim.Microsecond,
	})
	if len(clog.Intervals) == 0 || len(tr.Events()) == 0 {
		t.Fatalf("nothing traced: %d intervals, %d events", len(clog.Intervals), len(tr.Events()))
	}
	var buf bytes.Buffer
	if err := obs.ExportChromeTrace(&buf, tr.Events(), clog); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "breakdowns", "perfetto-mflow-tcp.json"), buf.Bytes())
}
