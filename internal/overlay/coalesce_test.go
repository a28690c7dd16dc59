package overlay

import (
	"sort"
	"testing"

	"mflow/internal/fault"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// TestRunCoalescedFingerprints pins the lanes' central invariant: lazy
// lane emission (and the inline slot) is timing-model-inert. Every steering
// system × protocol × chaos profile (including the fault-free one) must
// produce bit-identical fingerprints — counters, CPU accounting, latency
// quantiles, the full obs snapshot — on a lazy and on an eager scheduler.
func TestRunCoalescedFingerprints(t *testing.T) {
	t.Parallel()
	type cell struct {
		sys     steering.System
		proto   skb.Proto
		profile string // "" = fault-free
	}
	profiles := fault.ChaosProfiles()
	names := []string{""}
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)

	var cells []cell
	for _, sys := range steering.ExtendedSystems {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, name := range names {
				cells = append(cells, cell{sys, proto, name})
			}
		}
	}
	if testing.Short() {
		cells = []cell{
			{steering.MFlow, skb.TCP, ""},
			{steering.MFlow, skb.UDP, "random"},
			{steering.RPS, skb.TCP, "burst"},
		}
	}

	mk := func(c cell) Scenario {
		sc := determinismScenario(c.sys, c.proto)
		if c.profile != "" {
			sc.Faults = profiles[c.profile]
		}
		return sc
	}

	for _, c := range cells {
		coalesced := Run(mk(c)).Fingerprint()
		eager := run(mk(c), Probes{}, runOpts{eager: true}).Fingerprint()
		if coalesced != eager {
			t.Errorf("%s/%s/%q: coalesced run diverged from eager reference:\n--- coalesced ---\n%s\n--- eager ---\n%s",
				c.sys, c.proto, c.profile, coalesced, eager)
		}
	}
}

// TestCoalescingTelemetry verifies a run's scheduler self-accounting is
// populated and that the lanes and the inline slot actually reduce heap
// traffic on a real pipeline — the quantitative claim the mflowbench telemetry line reports.
func TestCoalescingTelemetry(t *testing.T) {
	t.Parallel()
	sc := determinismScenario(steering.MFlow, skb.TCP)
	res := Run(sc)
	st := res.Sched
	if st.Scheduled == 0 || st.HeapOps() == 0 {
		t.Fatalf("scheduler telemetry empty: %+v", st)
	}
	if st.Coalesced == 0 {
		t.Errorf("no lane entries waited outside the heap on an MFLOW pipeline: %+v", st)
	}
	if st.Inlined == 0 {
		t.Errorf("no events took the inline slot: %+v", st)
	}

	eager := run(determinismScenario(steering.MFlow, skb.TCP), Probes{}, runOpts{eager: true}).Sched
	if eager.Scheduled != st.Scheduled {
		t.Fatalf("logical event counts differ: lazy %d eager %d", st.Scheduled, eager.Scheduled)
	}
	if st.HeapOps() >= eager.HeapOps() {
		t.Errorf("lazy scheduling did not reduce heap ops: %d vs eager %d", st.HeapOps(), eager.HeapOps())
	}
	if st.PeakHeap > eager.PeakHeap {
		t.Errorf("lazy scheduling grew the peak heap: %d vs eager %d", st.PeakHeap, eager.PeakHeap)
	}
}
