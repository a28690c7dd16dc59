package core

import (
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

func TestDetectorPromotesElephant(t *testing.T) {
	d := NewDetector() // 1 Gbps threshold, 1 ms window
	// 2 Gbps: 250 KB per 1 ms window.
	now := sim.Time(0)
	for w := 0; w < 6; w++ {
		for i := 0; i < 170; i++ {
			d.Observe(1, 1500, now)
			now = now.Add(5 * sim.Microsecond)
		}
		now = sim.Time((w + 1)) * sim.Time(sim.Millisecond)
	}
	if !d.IsElephant(1) {
		t.Fatalf("2 Gbps flow not promoted (rate=%.2g)", d.flows[1].rateBps)
	}
	if d.Promotions != 1 {
		t.Errorf("Promotions=%d, want 1", d.Promotions)
	}
}

func TestDetectorIgnoresMice(t *testing.T) {
	d := NewDetector()
	// ~12 Mbps: one 1500B packet per millisecond.
	for w := 0; w < 20; w++ {
		d.Observe(2, 1500, sim.Time(w)*sim.Time(sim.Millisecond))
	}
	if d.IsElephant(2) {
		t.Fatal("12 Mbps mouse was promoted")
	}
	if d.IsElephant(999) {
		t.Fatal("unknown flow classified as elephant")
	}
}

func TestDetectorDemotionHysteresis(t *testing.T) {
	d := NewDetector()
	d.Alpha = 1 // no smoothing: windows take effect immediately
	// Promote at 2 Gbps.
	feed := func(bps float64, startMs, ms int) {
		perWindow := int(bps / 8 / 1000 / 1500) // packets of 1500B per 1ms
		for w := 0; w < ms; w++ {
			base := sim.Time(startMs+w) * sim.Time(sim.Millisecond)
			for i := 0; i < perWindow; i++ {
				d.Observe(3, 1500, base.Add(sim.Duration(i)))
			}
		}
		// Roll the final window.
		d.Observe(3, 0, sim.Time(startMs+ms)*sim.Time(sim.Millisecond))
	}
	feed(2e9, 0, 3)
	if !d.IsElephant(3) {
		t.Fatal("not promoted at 2 Gbps")
	}
	// 0.7 Gbps is below the 1 Gbps threshold but above the 0.5 Gbps
	// demotion line: classification must hold (hysteresis).
	feed(0.7e9, 3, 3)
	if !d.IsElephant(3) {
		t.Fatal("demoted inside the hysteresis band")
	}
	// 0.2 Gbps demotes.
	feed(0.2e9, 6, 3)
	if d.IsElephant(3) {
		t.Fatal("not demoted at 0.2 Gbps")
	}
	if d.Demotions != 1 {
		t.Errorf("Demotions=%d, want 1", d.Demotions)
	}
}

func TestDetectorIdleGapDecays(t *testing.T) {
	d := NewDetector()
	d.Alpha = 1
	for i := 0; i < 200; i++ {
		d.Observe(4, 1500, sim.Time(i)*5000)
	}
	d.Observe(4, 0, sim.Time(sim.Millisecond)) // roll: 2.4 Gbps window
	if !d.IsElephant(4) {
		t.Fatal("not promoted")
	}
	// A long silence then one packet: the rate must have decayed.
	d.Observe(4, 1500, sim.Time(500*sim.Millisecond))
	if d.flows[4].rateBps > 1e9 {
		t.Errorf("rate %.2g did not decay across idle gap", d.flows[4].rateBps)
	}
}

func TestSplitterGateRoutesMiceToBranchZero(t *testing.T) {
	sp, s, got := newSplitter(t, 2, 4)
	elephant := false
	sp.Gate = func() bool { return elephant }
	s.At(0, func() {
		for i := uint64(0); i < 8; i++ { // mf1, mf2 gated
			sp.Dispatch(seg(i, 1))
		}
		elephant = true
		for i := uint64(8); i < 16; i++ { // mf3, mf4 split
			sp.Dispatch(seg(i, 1))
		}
	})
	s.Run()
	// Gated micro-flows (1,2) all to target 0; elephant mf3 -> target 0
	// (formula), mf4 -> target 1.
	if len(got[0]) != 12 || len(got[1]) != 4 {
		t.Fatalf("routing wrong: %d/%d", len(got[0]), len(got[1]))
	}
	if sp.MiceMicroFlows != 2 {
		t.Errorf("MiceMicroFlows=%d, want 2", sp.MiceMicroFlows)
	}
}

func TestTagRoutedReassemblyAcrossGateFlip(t *testing.T) {
	// Micro-flows 1,2 travel branch 0 (gated); 3 on branch 0, 4 on
	// branch 1 (elephant). Arrivals interleave; order must be restored.
	var out []*skb.SKB
	r := NewReassembler(2, 2, collect(&out))
	r.TagRouting = true
	mk := func(seq uint64, mf uint64, branch int) *skb.SKB {
		s := seg(seq, 1)
		s.MicroFlow = mf
		s.Branch = branch
		return s
	}
	// Branch 1 (mf4: seqs 6,7) finishes early; branch 0 carries 1,2,3.
	r.Arrive(mk(6, 4, 1))
	r.Arrive(mk(7, 4, 1))
	for seq := uint64(0); seq < 6; seq++ {
		r.Arrive(mk(seq, seq/2+1, 0))
	}
	if len(out) != 8 {
		t.Fatalf("delivered %d, want 8", len(out))
	}
	for i, s := range out {
		if s.Seq != uint64(i) {
			t.Fatalf("order broken at %d: %v", i, s.Seq)
		}
	}
}

func TestTagRoutedStrictWaitsOnEmptyQueue(t *testing.T) {
	var out []*skb.SKB
	r := NewReassembler(2, 2, collect(&out))
	r.TagRouting = true
	// mf2 on branch 1 arrives first; mf1 (branch 0) still in flight.
	a := seg(2, 1)
	a.MicroFlow, a.Branch = 2, 1
	r.Arrive(a)
	if len(out) != 0 {
		t.Fatal("must wait for mf1")
	}
	b := seg(0, 1)
	b.MicroFlow, b.Branch = 1, 0
	c := seg(1, 1)
	c.MicroFlow, c.Branch = 1, 0
	r.Arrive(b)
	r.Arrive(c)
	d := seg(3, 1)
	d.MicroFlow, d.Branch = 2, 1
	r.Arrive(d)
	if len(out) != 4 {
		t.Fatalf("delivered %d, want 4", len(out))
	}
	for i, s := range out {
		if s.Seq != uint64(i) {
			t.Fatalf("order %v", out)
		}
	}
}
