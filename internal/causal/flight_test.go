package causal

import (
	"bytes"
	"strings"
	"testing"

	"mflow/internal/sim"
)

// driveFlight builds two cores, runs a fixed execution pattern past the ring
// size, and fires two triggers. Used twice by the determinism test.
func driveFlight(ringSize int) *FlightRecorder {
	sched := sim.NewScheduler(1)
	c0 := sim.NewCore(0, sched)
	c1 := sim.NewCore(1, sched)
	fr := &FlightRecorder{RingSize: ringSize, MaxSnapshots: 4}
	// Rings are created out of order; snapshots still list cores sorted.
	c1.ExecLog = fr.Ring(0, 1).Push
	c0.ExecLog = fr.Ring(0, 0).Push
	for i := 0; i < ringSize+3; i++ {
		c0.Exec(10, "alloc")
		c1.Exec(7, "vxlan")
	}
	fr.Trigger("drop-ring", 42, 1, c0.FreeAt())
	c0.Exec(5, "gro")
	fr.Trigger("rto", 0, 2, c0.FreeAt())
	return fr
}

func TestFlightRingOverwritesOldest(t *testing.T) {
	fr := driveFlight(8)
	if len(fr.Snapshots) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(fr.Snapshots))
	}
	snap := fr.Snapshots[0]
	if len(snap.Cores) != 2 || snap.Cores[0].Core != 0 || snap.Cores[1].Core != 1 {
		t.Fatalf("cores not in sorted order: %+v", snap.Cores)
	}
	ev := snap.Cores[0].Events
	if len(ev) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Start < ev[i-1].End {
			t.Errorf("ring not oldest-first at %d: %+v then %+v", i, ev[i-1], ev[i])
		}
	}
	if fr.Triggers["drop-ring"] != 1 || fr.Triggers["rto"] != 1 {
		t.Errorf("trigger counts = %v", fr.Triggers)
	}
	if got := fr.TriggerKinds(); len(got) != 2 || got[0] != "drop-ring" || got[1] != "rto" {
		t.Errorf("TriggerKinds = %v", got)
	}
}

func TestFlightSnapshotCapAndCounting(t *testing.T) {
	sched := sim.NewScheduler(1)
	c := sim.NewCore(0, sched)
	fr := &FlightRecorder{RingSize: 4, MaxSnapshots: 2}
	c.ExecLog = fr.Ring(0, 0).Push
	for i := 0; i < 5; i++ {
		c.Exec(1, "x")
		fr.Trigger("drop-ring", uint64(i), 1, c.FreeAt())
	}
	if len(fr.Snapshots) != 2 {
		t.Errorf("snapshots = %d, want cap 2", len(fr.Snapshots))
	}
	if fr.Triggers["drop-ring"] != 5 {
		t.Errorf("trigger count = %d, want all 5 counted", fr.Triggers["drop-ring"])
	}
}

// TestFlightExportDeterministic: two identical runs export byte-identical
// Perfetto traces (snapshot order, core order, event order all pinned).
func TestFlightExportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := driveFlight(16).Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := driveFlight(16).Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical runs exported different traces")
	}
	out := a.String()
	for _, want := range []string{
		`"flight 0: drop-ring pkt=42 flow=1"`, // process meta
		`"flight 1: rto pkt=0 flow=2"`,
		`"ph":"s"`, `"ph":"f"`, `"bp":"e"`, // flow arrow pair
		`"trigger"`, `"core 0"`, `"core 1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
}

func TestNilFlightRecorderSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Ring(0, 0).Push("x", 0, 1)
	fr.Trigger("x", 1, 1, 0)
	if fr.TriggerKinds() != nil || fr.ChromeEvents() != nil {
		t.Error("nil recorder returned non-nil state")
	}
	var buf bytes.Buffer
	if err := fr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[]") {
		t.Errorf("nil export = %q, want empty event array", buf.String())
	}
}
