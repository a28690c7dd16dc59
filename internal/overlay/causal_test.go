package overlay

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mflow/internal/causal"
	"mflow/internal/fault"
	"mflow/internal/harness"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// causalScenario is one conservation-matrix cell: short windows — the
// property is exact segment tiling, not statistical stability.
func causalScenario(sys steering.System, proto skb.Proto, plan *fault.Plan) Scenario {
	return Scenario{
		System: sys, Proto: proto, MsgSize: 65536,
		Warmup: 1 * sim.Millisecond, Measure: 2 * sim.Millisecond,
		Faults: plan,
		Seed:   42,
	}
}

// TestCausalConservationMatrix runs every steering system × protocol ×
// chaos profile with the profiler attached and property-checks conservation
// on every delivered packet: segments are contiguous from arrival and sum
// exactly — integer nanoseconds, zero tolerance — to the end-to-end
// latency. The profiler's internal self-check feeds Violations; OnComplete
// re-sums independently so the test does not trust that check alone.
func TestCausalConservationMatrix(t *testing.T) {
	type cell struct {
		sys   steering.System
		proto skb.Proto
		chaos string
	}
	profiles := fault.ChaosProfiles()
	var cells []cell
	for _, sys := range steering.ExtendedSystems {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			cells = append(cells, cell{sys, proto, ""})
			for name := range profiles {
				cells = append(cells, cell{sys, proto, name})
			}
		}
	}

	type verdict struct {
		delivered uint64
		violation string
		mismatch  string
	}
	verdicts := harness.Map(8, cells, func(_ int, c cell) verdict {
		p := causal.NewProfiler()
		var mismatch string
		p.OnComplete = func(r *causal.Rec) {
			prev := r.Arrived
			var sum sim.Duration
			for _, seg := range r.Timeline {
				if seg.Start != prev || seg.End < seg.Start {
					if mismatch == "" {
						mismatch = "pkt timeline not contiguous"
					}
					return
				}
				prev = seg.End
				sum += seg.Dur()
			}
			if prev != r.Done || sum != r.E2E() {
				if mismatch == "" {
					mismatch = "segments do not sum to e2e"
				}
			}
		}
		RunProbed(causalScenario(c.sys, c.proto, profiles[c.chaos]), Probes{Causal: p})
		return verdict{p.DeliveredPkts, p.FirstViolation(), mismatch}
	})
	for i, c := range cells {
		v := verdicts[i]
		name := c.sys.String() + "/" + c.proto.String() + "/" + c.chaos
		if v.violation != "" {
			t.Errorf("%s: %s", name, v.violation)
		}
		if v.mismatch != "" {
			t.Errorf("%s: %s", name, v.mismatch)
		}
		if v.delivered == 0 {
			t.Errorf("%s: no delivered packets — conservation vacuously true", name)
		}
	}
}

// TestProbedRunMatchesUnprobed pins the probes' purity: attaching the
// profiler and flight recorder changes nothing about the measured result —
// byte-identical fingerprints, covering every counter, latency quantile,
// CPU sample and drop count.
func TestProbedRunMatchesUnprobed(t *testing.T) {
	scenarios := []Scenario{
		causalScenario(steering.MFlow, skb.TCP, nil),
		causalScenario(steering.MFlow, skb.UDP, nil),
		causalScenario(steering.RPS, skb.TCP, nil),
		causalScenario(steering.MFlow, skb.TCP, fault.ChaosProfiles()["random"]),
	}
	for _, sc := range scenarios {
		plain := Run(sc).Fingerprint()
		probed := RunProbed(sc, Probes{
			Causal: causal.NewProfiler(),
			Flight: causal.NewFlightRecorder(),
		}).Fingerprint()
		if plain != probed {
			t.Errorf("%s/%s: probed run diverged from unprobed:\n--- unprobed ---\n%s\n--- probed ---\n%s",
				sc.System, sc.Proto, plain, probed)
		}
	}
}

// TestCausalMFlowReorderWaitVsRPS is the Fig. 7 causal claim: MFLOW packets
// wait on batch reassembly (reorder-wait attributed to the reassembler,
// with blame carried on releasing packets), while RPS — which never
// reorders — shows none.
func TestCausalMFlowReorderWaitVsRPS(t *testing.T) {
	reorderWait := func(sys steering.System) (total sim.Duration, blamed bool) {
		p := causal.NewProfiler()
		p.OnComplete = func(r *causal.Rec) {
			for _, seg := range r.Timeline {
				if seg.Kind == causal.SegReorderWait && seg.Blame != 0 {
					blamed = true
				}
			}
		}
		res := RunProbed(causalScenario(sys, skb.TCP, nil), Probes{Causal: p})
		for _, st := range res.Breakdown {
			if st.Kind == causal.SegReorderWait {
				total += st.Total
				if st.Stage != "reassembler" {
					t.Errorf("%s: reorder-wait at %q, want reassembler", sys, st.Stage)
				}
			}
		}
		if v := p.Violations(); v != 0 {
			t.Fatalf("%s: %d violations: %s", sys, v, p.FirstViolation())
		}
		return total, blamed
	}
	mflowWait, mflowBlamed := reorderWait(steering.MFlow)
	if mflowWait == 0 {
		t.Error("mflow shows no reassembly reorder-wait")
	}
	if !mflowBlamed {
		t.Error("mflow reorder-waits carry no blame packet ids")
	}
	if rpsWait, _ := reorderWait(steering.RPS); rpsWait != 0 {
		t.Errorf("rps shows %v reorder-wait, want none", rpsWait)
	}
}

// causalFingerprint renders everything the profiler and flight recorder
// produced — breakdown, exemplar timelines, trigger counts, the Perfetto
// export — for the double-run determinism comparison.
func causalFingerprint(sc Scenario) string {
	p := causal.NewProfiler()
	fr := causal.NewFlightRecorder()
	RunProbed(sc, Probes{Causal: p, Flight: fr})
	var b strings.Builder
	b.WriteString(causal.RenderBreakdown(p.Breakdown()))
	for _, r := range p.Exemplars() {
		b.WriteString(causal.RenderTimeline(r))
	}
	for _, k := range fr.TriggerKinds() {
		b.WriteString(k)
	}
	var buf bytes.Buffer
	if err := fr.Export(&buf); err != nil {
		return "export error: " + err.Error()
	}
	b.Write(buf.Bytes())
	return b.String()
}

// TestCausalDeterminism: two identical probed runs produce byte-identical
// attribution — breakdown tables, exemplar timelines, and the flight
// recorder's Perfetto export.
func TestCausalDeterminism(t *testing.T) {
	for _, sc := range []Scenario{
		causalScenario(steering.MFlow, skb.TCP, nil),
		causalScenario(steering.MFlow, skb.UDP, fault.ChaosProfiles()["random"]),
	} {
		a := causalFingerprint(sc)
		b := causalFingerprint(sc)
		if a != b {
			t.Errorf("%s/%s: two probed runs rendered differently", sc.System, sc.Proto)
		}
	}
}

// TestFlightGapTimeoutGolden forces reassembler gap-timeouts and pins the
// flight recorder's Perfetto export byte for byte. Single-segment
// micro-flows under heavy uniform loss plus a gap timer tighter than the
// pipeline's own skew guarantee timer-path hole releases (with realistic
// timeouts the merger's advance heuristics resolve holes first — see
// Reassembler.onGapTimer). Regenerate with
// go test ./internal/overlay/ -run TestFlightGapTimeoutGolden -update
// after an intentional change.
func TestFlightGapTimeoutGolden(t *testing.T) {
	sc := causalScenario(steering.MFlow, skb.UDP, &fault.Plan{
		Wire:       fault.Profile{Drop: 0.05},
		GapTimeout: 2 * sim.Microsecond,
	})
	sc.MFlow.BatchSize = 1
	fr := &causal.FlightRecorder{RingSize: 16, MaxSnapshots: 2}
	RunProbed(sc, Probes{Flight: fr})
	if fr.Triggers["gap-timeout"] == 0 {
		t.Fatalf("burst profile produced no gap-timeouts (triggers: %v)", fr.Triggers)
	}
	var buf bytes.Buffer
	if err := fr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "flight_gap_timeout.json"), buf.Bytes())
}
