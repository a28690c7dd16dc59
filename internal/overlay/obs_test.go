package overlay

import (
	"fmt"
	"strings"
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/obs"
	"mflow/internal/overload"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/trace"
)

// obsScenario is a small deterministic MFLOW TCP run with the registry on.
func obsScenario() (Scenario, *obs.Registry) {
	reg := obs.New()
	return Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
		Obs:    reg,
		Warmup: 2 * sim.Millisecond, Measure: 5 * sim.Millisecond,
	}, reg
}

// TestObsStageLatencyCountsMatchDeliveries asserts the acceptance criterion:
// per-stage latency histograms are recorded for every packet (no tracer
// attached at all here), and the socket-stage count over the measured window
// equals the delivered segment count exactly.
func TestObsStageLatencyCountsMatchDeliveries(t *testing.T) {
	sc, _ := obsScenario()
	res := Run(sc)
	if res.DeliveredSegments == 0 {
		t.Fatal("scenario delivered nothing")
	}
	m, ok := res.Obs.Get("stage_latency", "stage", "socket")
	if !ok {
		t.Fatalf("no socket stage_latency series; have %v", res.Obs.Names())
	}
	if m.Count != res.DeliveredSegments {
		t.Errorf("stage_latency{socket} count %d != delivered segments %d", m.Count, res.DeliveredSegments)
	}
	// Every pipeline stage must have recorded too, with sane latencies.
	var stages int
	for _, name := range res.Obs.Names() {
		if !strings.HasPrefix(name, "stage_latency{") {
			continue
		}
		stages++
		if res.Obs[name].Count == 0 {
			t.Errorf("%s recorded nothing", name)
		}
		if res.Obs[name].Max <= 0 {
			t.Errorf("%s has non-positive max latency", name)
		}
	}
	if stages < 3 {
		t.Errorf("expected >=3 instrumented stages, got %d", stages)
	}
}

// TestObsQueueDepthsNonZero asserts the other run-level acceptance
// criterion: a MFLOW TCP run records non-zero p99 depth for the NIC ring
// and for at least one backlog queue.
func TestObsQueueDepthsNonZero(t *testing.T) {
	sc, _ := obsScenario()
	res := Run(sc)
	ring, ok := res.Obs.Get("queue_depth", "queue", "nic_ring0")
	if !ok {
		t.Fatalf("no NIC ring depth series; have %v", res.Obs.Names())
	}
	if ring.P99 <= 0 {
		t.Errorf("NIC ring p99 depth is zero: %+v", ring)
	}
	if ring.Count != uint64(sc.Measure) {
		t.Errorf("ring depth covers %d ns of the %d ns measured window", ring.Count, sc.Measure)
	}
	var backlogP99 int64
	for _, name := range res.Obs.Names() {
		if strings.HasPrefix(name, "queue_depth{queue=backlog:") && res.Obs[name].P99 > backlogP99 {
			backlogP99 = res.Obs[name].P99
		}
	}
	if backlogP99 <= 0 {
		t.Error("no backlog queue recorded a non-zero p99 depth")
	}
}

// TestObsRingIsFirstBacklog pins that the NIC ring and its first stage's
// backlog, being one queue, report identical occupancy series.
func TestObsRingIsFirstBacklog(t *testing.T) {
	for _, sys := range []steering.System{steering.Vanilla, steering.MFlow} {
		sc, _ := obsScenario()
		sc.System = sys
		h := testHost(sc.withDefaults(), Probes{})
		backlog := ""
		for i, st := range h.stages {
			if st.worker == h.nic.Driver(0) {
				backlog = fmt.Sprintf("backlog:%s#%d", st.name, i)
			}
		}
		if backlog == "" {
			t.Fatalf("%s: no stage drives ring 0", sys)
		}
		res := h.run()
		ring, _ := res.Obs.Get("queue_depth", "queue", "nic_ring0")
		first, ok := res.Obs.Get("queue_depth", "queue", backlog)
		if !ok || ring != first || ring.Max == 0 {
			t.Errorf("%s: nic_ring0 %+v, %s %+v", sys, ring, backlog, first)
		}
	}
}

// TestObsIdleRingAccounted checks a TX-only fabric host's idle NIC queue,
// which has no driver worker, still reports a ring series: empty for the
// whole measured window.
func TestObsIdleRingAccounted(t *testing.T) {
	sc := fabricScenario(steering.MFlow, skb.TCP, 3)
	sc.Fabric.Placement = fabric.PlaceIncast
	res := Run(sc)
	idle, ok := res.Obs.Get("queue_depth", "queue", "h1:nic_ring0")
	if !ok || idle.Count != uint64(sc.Measure) || idle.Max != 0 {
		t.Errorf("TX-only host ring: ok=%v %+v", ok, idle)
	}
	if busy, _ := res.Obs.Get("queue_depth", "queue", "h0:nic_ring0"); busy.Max == 0 {
		t.Errorf("receiving host ring never occupied: %+v", busy)
	}
}

// TestObsRegistryIsPure runs a plain, a fabric and an overload scenario
// with and without a registry: apart from the obs lines themselves the
// fingerprints must be identical, since recording never schedules or
// draws randomness.
func TestObsRegistryIsPure(t *testing.T) {
	withoutObs := func(fp string) string {
		var keep []string
		for _, line := range strings.Split(fp, "\n") {
			if !strings.HasPrefix(line, "obs ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"plain", determinismScenario(steering.MFlow, skb.TCP)},
		{"fabric", fabricScenario(steering.MFlow, skb.UDP, 2)},
		{"overload", overloadScenario(steering.MFlow, skb.UDP, overload.Profiles()["pressure"])},
	} {
		plain, observed := tc.sc, tc.sc
		plain.Obs, observed.Obs = nil, obs.New()
		a := Run(plain).Fingerprint()
		res := Run(observed)
		if len(res.Obs) == 0 {
			t.Fatalf("%s: observed run has an empty snapshot", tc.name)
		}
		if b := withoutObs(res.Fingerprint()); a != b {
			t.Errorf("%s: the registry perturbed the run:\n--- plain ---\n%s\n--- observed ---\n%s", tc.name, a, b)
		}
	}
}

// TestObsStageGapsRecorded checks inter-stage queueing delay series exist
// for the MFLOW pipeline's handoffs (dispatch → branch, branch → socket).
func TestObsStageGapsRecorded(t *testing.T) {
	sc, _ := obsScenario()
	res := Run(sc)
	var gaps []string
	for _, name := range res.Obs.Names() {
		if strings.HasPrefix(name, "stage_gap{") && res.Obs[name].Count > 0 {
			gaps = append(gaps, name)
		}
	}
	if len(gaps) < 2 {
		t.Errorf("expected >=2 stage_gap series, got %v", gaps)
	}
	var toSocket bool
	for _, g := range gaps {
		if strings.Contains(g, "to=socket") {
			toSocket = true
		}
	}
	if !toSocket {
		t.Errorf("no gap series terminating at the socket: %v", gaps)
	}
}

// TestObsCountersAndDevices checks the synced NIC/device counters cover the
// measured window (received > 0, per-device segment counts present).
func TestObsCountersAndDevices(t *testing.T) {
	sc, _ := obsScenario()
	res := Run(sc)
	if m, _ := res.Obs.Get("nic_received"); m.Value <= 0 {
		t.Errorf("nic_received not positive: %+v", m)
	}
	if m, ok := res.Obs.Get("device_segs", "device", "vxlan"); !ok || m.Value <= 0 {
		t.Errorf("vxlan device_segs missing or zero: %+v ok=%v", m, ok)
	}
	if m, _ := res.Obs.Get("socket_delivered_segs"); uint64(m.Value) != res.DeliveredSegments {
		t.Errorf("socket_delivered_segs %v != DeliveredSegments %d", m.Value, res.DeliveredSegments)
	}
}

// TestObsDeterministic runs the same observed scenario twice and expects
// identical snapshots — the registry must not perturb determinism.
func TestObsDeterministic(t *testing.T) {
	sc1, _ := obsScenario()
	sc2, _ := obsScenario()
	var b1, b2 strings.Builder
	if err := Run(sc1).Obs.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := Run(sc2).Obs.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("observed runs with identical seeds diverged")
	}
}

// TestObsDoesNotChangeResults guards the zero-overhead claim the other way:
// attaching a registry must not change the simulation's outcome.
func TestObsDoesNotChangeResults(t *testing.T) {
	sc, _ := obsScenario()
	plain := sc
	plain.Obs = nil
	a := Run(sc)
	b := Run(plain)
	if a.Gbps != b.Gbps || a.DeliveredSegments != b.DeliveredSegments {
		t.Errorf("observability changed the run: %.3f/%d vs %.3f/%d Gbps/segs",
			a.Gbps, a.DeliveredSegments, b.Gbps, b.DeliveredSegments)
	}
}

// TestObsWithTracerAndCoreLog exercises the full export path end to end on
// a UDP scenario: tracer + core log + registry on one run.
func TestObsWithTracerAndCoreLog(t *testing.T) {
	sc, _ := obsScenario()
	sc.Proto = skb.UDP
	sc.Tracer = trace.New()
	sc.Tracer.OnlyFlow = 1
	sc.Tracer.OnlySeqBelow = 64
	sc.CoreLog = &obs.CoreLog{}
	res := Run(sc)
	if res.DeliveredSegments == 0 {
		t.Fatal("UDP scenario delivered nothing")
	}
	if len(sc.Tracer.Events()) == 0 {
		t.Error("tracer recorded nothing")
	}
	if len(sc.CoreLog.Intervals) == 0 {
		t.Error("core log recorded nothing")
	}
	evs := obs.ChromeTraceEvents(sc.Tracer.Events(), sc.CoreLog)
	if len(evs) <= len(sc.Tracer.Events()) {
		t.Errorf("chrome events %d should exceed tracer events %d", len(evs), len(sc.Tracer.Events()))
	}
}
