package causal

import (
	"strings"
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

func mkSKB(pkt uint64, at sim.Time) *skb.SKB {
	return &skb.SKB{PktID: pkt, FlowID: 1, Seq: pkt - 1, Segs: 1, ArrivedAt: at}
}

// TestConservationExact drives one packet through every mark type and
// checks the timeline tiles [Arrived, Done] exactly.
func TestConservationExact(t *testing.T) {
	p := NewProfiler()
	var got *Rec
	p.OnComplete = func(r *Rec) {
		var sum sim.Duration
		prev := r.Arrived
		for _, seg := range r.Timeline {
			if seg.Start != prev {
				t.Errorf("segment starts at %v, previous ended at %v", seg.Start, prev)
			}
			prev = seg.End
			sum += seg.Dur()
		}
		if prev != r.Done {
			t.Errorf("timeline ends at %v, record done at %v", prev, r.Done)
		}
		if sum != r.E2E() {
			t.Errorf("segments sum to %v, e2e is %v", sum, r.E2E())
		}
		cp := *r
		got = &cp
	}

	s := mkSKB(7, 100)
	p.MarkWait(s, "driver", 150, true, false, 0) // ring-wait 50
	p.Mark(s, SegService, "driver", 180)         // service 30
	p.MarkBlame(s, "reassembler", 300, 9)        // reorder-wait 120, blame 9
	p.MarkServe(s, 350, 400)                     // sock-wait 50, copy 50
	p.Complete(s, 425)                           // other 25

	if got == nil {
		t.Fatal("OnComplete never fired")
	}
	if v := p.Violations(); v != 0 {
		t.Fatalf("%d violations: %s", v, p.FirstViolation())
	}
	kinds := []SegKind{SegRingWait, SegService, SegReorderWait, SegSockWait, SegCopy, SegOther}
	if len(got.Timeline) != len(kinds) {
		t.Fatalf("timeline has %d segments, want %d: %+v", len(got.Timeline), len(kinds), got.Timeline)
	}
	for i, k := range kinds {
		if got.Timeline[i].Kind != k {
			t.Errorf("segment %d is %v, want %v", i, got.Timeline[i].Kind, k)
		}
	}
	if got.Timeline[2].Blame != 9 {
		t.Errorf("reorder-wait blame = %d, want 9", got.Timeline[2].Blame)
	}
	if s.CP != nil {
		t.Error("Complete left skb.CP set")
	}
	if p.DeliveredPkts != 1 {
		t.Errorf("DeliveredPkts = %d, want 1", p.DeliveredPkts)
	}
}

// TestMarkWaitPolicy exercises the wait-classification branches.
func TestMarkWaitPolicy(t *testing.T) {
	p := NewProfiler()

	// Not ring-fed: plain queue.
	s := mkSKB(1, 0)
	p.MarkWait(s, "st", 10, false, false, 0)
	if k := p.rec(s).Timeline[0].Kind; k != SegQueue {
		t.Errorf("plain wait classified %v, want queue", k)
	}

	// Idle wake: handoff head then queue remainder.
	s2 := mkSKB(2, 0)
	p.NoteIdleWake(s2)
	p.MarkWait(s2, "st", 10, false, false, 3)
	tl := p.rec(s2).Timeline
	if len(tl) != 2 || tl[0].Kind != SegHandoff || tl[0].Dur() != 3 || tl[1].Kind != SegQueue || tl[1].Dur() != 7 {
		t.Errorf("wake wait = %+v, want handoff(3)+queue(7)", tl)
	}

	// Wake longer than the gap: handoff clamped to the whole gap.
	s3 := mkSKB(3, 0)
	p.NoteIdleWake(s3)
	p.MarkWait(s3, "st", 2, false, false, 5)
	tl = p.rec(s3).Timeline
	if len(tl) != 1 || tl[0].Kind != SegHandoff || tl[0].Dur() != 2 {
		t.Errorf("clamped wake wait = %+v, want handoff(2)", tl)
	}

	// Batched in a GRO stage: gro-hold.
	s4 := mkSKB(4, 0)
	p.Mark(s4, SegService, "st", 5)
	p.NoteBatched(s4)
	p.MarkWait(s4, "st", 12, false, true, 0)
	tl = p.rec(s4).Timeline
	if tl[len(tl)-1].Kind != SegGROHold {
		t.Errorf("batched GRO wait classified %v, want gro-hold", tl[len(tl)-1].Kind)
	}

	// Flags consumed even on empty gaps.
	s5 := mkSKB(5, 0)
	p.NoteIdleWake(s5)
	p.MarkWait(s5, "st", 0, false, false, 3) // empty gap
	p.MarkWait(s5, "st", 4, false, false, 3) // wake already consumed
	tl = p.rec(s5).Timeline
	if len(tl) != 1 || tl[0].Kind != SegQueue {
		t.Errorf("consumed-flag wait = %+v, want one queue segment", tl)
	}

	if v := p.Violations(); v != 0 {
		t.Fatalf("%d violations: %s", v, p.FirstViolation())
	}
}

// TestPoolAliasingDetected proves the profiler keys on PktID, not the skb
// pointer: a pooled skb reused for a new arrival without closing the old
// record is detected, flagged, and restarted fresh.
func TestPoolAliasingDetected(t *testing.T) {
	p := NewProfiler()
	s := mkSKB(1, 0)
	p.Mark(s, SegService, "st", 10)

	// The pool would zero the skb; simulate a component that leaked the CP
	// slot past Put by copying it onto the next arrival.
	cp := s.CP
	s2 := mkSKB(2, 20)
	s2.CP = cp
	p.Mark(s2, SegService, "st", 30)

	if p.Violations() != 1 {
		t.Fatalf("violations = %d, want 1 (pool aliasing)", p.Violations())
	}
	if !strings.Contains(p.FirstViolation(), "aliasing") {
		t.Errorf("violation message %q does not mention aliasing", p.FirstViolation())
	}
	r := p.rec(s2)
	if r.Pkt != 2 || len(r.Timeline) != 1 {
		t.Errorf("fresh record not started: %+v", r)
	}
}

// TestBackwardsMarkViolates: a mark behind the cursor is recorded as a
// violation, never a negative segment.
func TestBackwardsMarkViolates(t *testing.T) {
	p := NewProfiler()
	s := mkSKB(1, 100)
	p.Mark(s, SegService, "st", 200)
	p.Mark(s, SegService, "st", 150)
	if p.Violations() != 1 {
		t.Fatalf("violations = %d, want 1", p.Violations())
	}
	for _, seg := range p.rec(s).Timeline {
		if seg.End < seg.Start {
			t.Errorf("negative segment %+v", seg)
		}
	}
}

// TestExemplarsTopK checks per-flow slowest-k retention and ordering.
func TestExemplarsTopK(t *testing.T) {
	p := &Profiler{ExemplarsPerFlow: 2}
	e2es := []sim.Duration{50, 10, 90, 30, 70}
	for i, d := range e2es {
		s := mkSKB(uint64(i+1), 0)
		p.Mark(s, SegService, "st", sim.Time(0).Add(d))
		p.Complete(s, sim.Time(0).Add(d))
	}
	ex := p.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("kept %d exemplars, want 2", len(ex))
	}
	if ex[0].E2E() != 90 || ex[1].E2E() != 70 {
		t.Errorf("exemplars e2e = %v, %v; want 90, 70", ex[0].E2E(), ex[1].E2E())
	}
	if p.DeliveredPkts != uint64(len(e2es)) {
		t.Errorf("DeliveredPkts = %d, want %d", p.DeliveredPkts, len(e2es))
	}
}

// TestAbsorbAndDrop close records with the right outcome counters and clear
// the CP slot.
func TestAbsorbAndDrop(t *testing.T) {
	p := NewProfiler()
	s := mkSKB(1, 0)
	p.Mark(s, SegService, "st", 10)
	p.Absorb(s)
	if p.AbsorbedPkts != 1 || s.CP != nil {
		t.Errorf("absorb: counter=%d cp=%v", p.AbsorbedPkts, s.CP)
	}

	s2 := mkSKB(2, 0)
	p.MarkWait(s2, "st", 5, false, false, 0)
	p.Drop(s2, 9, "backlog")
	if p.DroppedPkts != 1 || s2.CP != nil {
		t.Errorf("drop: counter=%d cp=%v", p.DroppedPkts, s2.CP)
	}
	if v := p.Violations(); v != 0 {
		t.Fatalf("%d violations: %s", v, p.FirstViolation())
	}
}

// TestResetStatsKeepsInFlight: stats reset at the warmup boundary, but a
// packet mid-flight completes cleanly afterwards.
func TestResetStatsKeepsInFlight(t *testing.T) {
	p := NewProfiler()
	done := mkSKB(1, 0)
	p.Mark(done, SegService, "st", 10)
	p.Complete(done, 10)

	inflight := mkSKB(2, 5)
	p.Mark(inflight, SegService, "st", 8)

	p.ResetStats()
	if p.DeliveredPkts != 0 || len(p.Breakdown()) != 0 || len(p.Exemplars()) != 0 {
		t.Errorf("reset left stats: %d delivered, %d rows, %d exemplars",
			p.DeliveredPkts, len(p.Breakdown()), len(p.Exemplars()))
	}

	p.Mark(inflight, SegService, "st", 20)
	p.Complete(inflight, 20)
	if p.DeliveredPkts != 1 {
		t.Errorf("post-reset DeliveredPkts = %d, want 1", p.DeliveredPkts)
	}
	if v := p.Violations(); v != 0 {
		t.Fatalf("%d violations: %s", v, p.FirstViolation())
	}
}

// TestNilProfilerSafe: every exported method tolerates a nil receiver.
func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	s := mkSKB(1, 0)
	p.Mark(s, SegService, "st", 10)
	p.MarkBlame(s, "st", 10, 0)
	p.MarkWait(s, "st", 10, true, true, 5)
	p.MarkServe(s, 10, 20)
	p.NoteIdleWake(s)
	p.NoteBatched(s)
	p.Complete(s, 20)
	p.Absorb(s)
	p.Drop(s, 20, "x")
	p.ResetStats()
	if p.Breakdown() != nil || p.Exemplars() != nil || p.Violations() != 0 || p.FirstViolation() != "" {
		t.Error("nil profiler returned non-zero state")
	}
	if s.CP != nil {
		t.Error("nil profiler touched the skb")
	}
}

// TestRenderers smoke-checks the plain-text renderings.
func TestRenderers(t *testing.T) {
	p := NewProfiler()
	s := mkSKB(3, 0)
	p.MarkWait(s, "driver", 10, true, false, 0)
	p.MarkBlame(s, "reassembler", 30, 8)
	p.Complete(s, 40)

	ex := p.Exemplars()
	if len(ex) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(ex))
	}
	tl := RenderTimeline(ex[0])
	for _, want := range []string{"pkt 3", "ring-wait", "reorder-wait", "released by pkt 8"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
	bd := RenderBreakdown(p.Breakdown())
	for _, want := range []string{"ring-wait", "reorder-wait", "other", "share"} {
		if !strings.Contains(bd, want) {
			t.Errorf("breakdown missing %q:\n%s", want, bd)
		}
	}
}
