package trace

import (
	"sort"
	"strings"
	"testing"

	"mflow/internal/sim"
)

func TestTracerRecordAndJourney(t *testing.T) {
	tr := New()
	tr.Record(100, 0, 1, 0, 1, "nic", 0, -1)
	tr.Record(200, 0, 1, 0, 1, "alloc", 0, 2)
	tr.Record(150, 0, 1, 1, 1, "nic", 0, -1)
	tr.Record(300, 0, 1, 0, 1, "socket", 0, 0)

	j := tr.Journey(1, 0)
	if len(j) != 3 {
		t.Fatalf("journey has %d events, want 3", len(j))
	}
	for i := 1; i < len(j); i++ {
		if j[i].At < j[i-1].At {
			t.Fatal("journey not time-ordered")
		}
	}
	if j[0].Stage != "nic" || j[2].Stage != "socket" {
		t.Errorf("journey stages wrong: %+v", j)
	}
}

func TestTracerMergedCoverage(t *testing.T) {
	tr := New()
	tr.Record(100, 0, 1, 0, 4, "gro", 0, 1) // covers seqs 0-3
	if len(tr.Journey(1, 3)) != 1 {
		t.Error("merged event should match covered seq")
	}
	if len(tr.Journey(1, 4)) != 0 {
		t.Error("seq beyond coverage should not match")
	}
}

func TestTracerFilters(t *testing.T) {
	tr := New()
	tr.OnlyFlow = 7
	tr.OnlySeqBelow = 10
	tr.Record(1, 0, 7, 5, 1, "a", 0, 0)
	tr.Record(2, 0, 8, 5, 1, "a", 0, 0)  // wrong flow
	tr.Record(3, 0, 7, 50, 1, "a", 0, 0) // seq too high
	if len(tr.Events()) != 1 {
		t.Errorf("filters failed: %d events", len(tr.Events()))
	}
}

func TestTracerCap(t *testing.T) {
	tr := &Tracer{MaxEvents: 3}
	for i := 0; i < 10; i++ {
		tr.Record(1, 0, 1, uint64(i), 1, "x", 0, 0)
	}
	if len(tr.Events()) != 3 || tr.Skipped != 7 {
		t.Errorf("cap failed: %d events, %d skipped", len(tr.Events()), tr.Skipped)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(1, 0, 1, 1, 1, "x", 0, 0) // must not panic
}

func TestRenderAndOccupancy(t *testing.T) {
	tr := New()
	tr.Record(100, 0, 1, 0, 1, "nic", 0, -1)
	tr.Record(250, 0, 1, 0, 1, "vxlan", 0, 3)
	out := tr.RenderJourney(1, 0)
	if !strings.Contains(out, "vxlan") || !strings.Contains(out, "+150ns") {
		t.Errorf("render wrong:\n%s", out)
	}
	if !strings.Contains(tr.RenderJourney(9, 9), "no events") {
		t.Error("missing-journey render")
	}
	occ := tr.CoreOccupancy()
	if occ[3]["vxlan"] != 1 {
		t.Errorf("occupancy wrong: %v", occ)
	}
	stages := tr.Stages()
	if len(stages) != 2 || stages[0] != "nic" {
		t.Errorf("stages: %v", stages)
	}
}

func TestZeroValueTracerUsable(t *testing.T) {
	var tr Tracer
	for i := 0; i < DefaultMaxEvents+5; i++ {
		tr.Record(sim.Time(i), 0, 1, uint64(i), 1, "x", 0, 0)
	}
	if len(tr.Events()) != DefaultMaxEvents || tr.Skipped != 5 {
		t.Errorf("zero-value cap: %d events, %d skipped", len(tr.Events()), tr.Skipped)
	}
}

func TestJourneyIndexInvalidatedByRecord(t *testing.T) {
	tr := New()
	tr.Record(100, 0, 1, 0, 1, "nic", 0, -1)
	if len(tr.Journey(1, 0)) != 1 { // builds the memoized index
		t.Fatal("first journey wrong")
	}
	tr.Record(200, 0, 1, 0, 1, "socket", 0, 0) // must invalidate it
	j := tr.Journey(1, 0)
	if len(j) != 2 || j[1].Stage != "socket" {
		t.Fatalf("stale index after Record: %+v", j)
	}
	// Out-of-order recording still yields time-ordered journeys, and
	// repeated queries agree with each other.
	tr.Record(50, 0, 1, 0, 1, "wire", 0, -1)
	j = tr.Journey(1, 0)
	if len(j) != 3 || j[0].Stage != "wire" {
		t.Fatalf("index not re-sorted: %+v", j)
	}
	again := tr.Journey(1, 0)
	for i := range j {
		if j[i] != again[i] {
			t.Fatal("repeated queries diverged")
		}
	}
}

func TestJourneySameInstantStableOrder(t *testing.T) {
	tr := New()
	tr.Record(100, 0, 1, 0, 1, "a", 0, 0)
	tr.Record(100, 0, 1, 0, 1, "b", 0, 0)
	tr.Record(100, 0, 1, 0, 1, "c", 0, 0)
	j := tr.Journey(1, 0)
	if len(j) != 3 || j[0].Stage != "a" || j[1].Stage != "b" || j[2].Stage != "c" {
		t.Errorf("same-instant events lost recording order: %+v", j)
	}
}

// TestJourneyPktNoPoolAliasing is the pool-reuse regression: a recycled skb
// carrying the same (flow, seq) — a retransmission through a reused buffer —
// aliases under the coverage-query Journey but stays two distinct arrivals
// under journeyPkt, which keys on the monotonic packet id the NIC assigns
// per physical arrival.
func TestJourneyPktNoPoolAliasing(t *testing.T) {
	tr := New()
	// First arrival: pkt 7 travels nic -> socket.
	tr.Record(100, 7, 1, 0, 1, "nic", 0, -1)
	tr.Record(300, 7, 1, 0, 1, "socket", 0, 0)
	// Pool reuse: the same skb slot returns as a retransmission of the
	// same (flow, seq), handed fresh pkt 9 at the NIC.
	tr.Record(500, 9, 1, 0, 1, "nic", 0, -1)
	tr.Record(900, 9, 1, 0, 1, "socket", 0, 0)

	if n := len(tr.Journey(1, 0)); n != 4 {
		t.Fatalf("coverage query conflates the arrivals into %d events (expected 4: the documented aliasing)", n)
	}
	j7, j9 := journeyPkt(tr, 7), journeyPkt(tr, 9)
	if len(j7) != 2 || len(j9) != 2 {
		t.Fatalf("journeyPkt split = %d + %d events, want 2 + 2", len(j7), len(j9))
	}
	if j7[1].At != 300 || j9[1].At != 900 {
		t.Errorf("journeys mixed up: pkt7 ends at %v, pkt9 at %v", j7[1].At, j9[1].At)
	}
	for i := 1; i < len(j9); i++ {
		if j9[i].At < j9[i-1].At {
			t.Fatal("journeyPkt not time-ordered")
		}
	}

	if journeyPkt(tr, 0) != nil {
		t.Error("pkt 0 is the unassigned sentinel; journeyPkt(0) must return nothing")
	}
}

// journeyPkt returns the events of one physical arrival, keyed by the
// monotonic packet id, in time order. Unlike Journey (a coverage query over
// (flow, seq), which conflates a retransmission with the original and any
// GRO super-packet spanning the seq), journeyPkt never aliases: pool reuse
// hands the recycled skb a fresh PktID at the NIC.
func journeyPkt(t *Tracer, pkt uint64) []Event {
	if pkt == 0 {
		return nil
	}
	var out []Event
	for _, e := range t.events {
		if e.Pkt == pkt {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
