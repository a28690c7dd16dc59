package gro

import (
	"testing"
	"testing/quick"

	"mflow/internal/skb"
)

func tcpSeg(flow, seq uint64) *skb.SKB {
	return &skb.SKB{FlowID: flow, Proto: skb.TCP, Seq: seq, Segs: 1, WireLen: 1500, PayloadLen: 1448}
}

func udpSeg(flow, seq uint64) *skb.SKB {
	s := tcpSeg(flow, seq)
	s.Proto = skb.UDP
	return s
}

func TestCoalesceMergesConsecutiveTCP(t *testing.T) {
	g := New()
	batch := []*skb.SKB{tcpSeg(1, 0), tcpSeg(1, 1), tcpSeg(1, 2), tcpSeg(1, 3)}
	out := g.Coalesce(batch)
	if len(out) != 1 {
		t.Fatalf("got %d skbs, want 1", len(out))
	}
	if out[0].Segs != 4 || out[0].PayloadLen != 4*1448 {
		t.Errorf("merged skb wrong: %+v", out[0])
	}
	if g.SkbsOut == 0 || g.SegsIn != 4*g.SkbsOut {
		t.Errorf("factor %d/%d, want 4", g.SegsIn, g.SkbsOut)
	}
}

func TestCoalesceUDPPassesThrough(t *testing.T) {
	g := New()
	out := g.Coalesce([]*skb.SKB{udpSeg(1, 0), udpSeg(1, 1), udpSeg(1, 2)})
	if len(out) != 3 {
		t.Fatalf("UDP must not merge, got %d skbs", len(out))
	}
}

func TestCoalesceRespectsByteCap(t *testing.T) {
	g := New()
	g.MaxBytes = 3000 // two 1448-byte payloads fit, three don't
	out := g.Coalesce([]*skb.SKB{tcpSeg(1, 0), tcpSeg(1, 1), tcpSeg(1, 2), tcpSeg(1, 3)})
	if len(out) != 2 {
		t.Fatalf("got %d skbs, want 2 under 3000-byte cap", len(out))
	}
	if out[0].Segs != 2 || out[1].Segs != 2 {
		t.Errorf("split %d/%d, want 2/2", out[0].Segs, out[1].Segs)
	}
}

func TestCoalesceInterleavedFlows(t *testing.T) {
	g := New()
	out := g.Coalesce([]*skb.SKB{
		tcpSeg(1, 0), tcpSeg(2, 0), tcpSeg(1, 1), tcpSeg(2, 1),
	})
	if len(out) != 2 {
		t.Fatalf("got %d skbs, want 2 (one per flow)", len(out))
	}
	if out[0].FlowID != 1 || out[1].FlowID != 2 {
		t.Error("first-arrival order not preserved")
	}
	if out[0].Segs != 2 || out[1].Segs != 2 {
		t.Error("interleaved same-flow segments should merge")
	}
}

func TestCoalesceStopsAtGap(t *testing.T) {
	g := New()
	out := g.Coalesce([]*skb.SKB{tcpSeg(1, 0), tcpSeg(1, 2)}) // seq 1 missing
	if len(out) != 2 {
		t.Fatal("gap must not merge")
	}
}

func TestCoalesceStopsAtMessageBoundary(t *testing.T) {
	g := New()
	a := tcpSeg(1, 0)
	a.MsgEnd = true
	out := g.Coalesce([]*skb.SKB{a, tcpSeg(1, 1)})
	if len(out) != 2 {
		t.Fatal("message boundary must flush the super-packet")
	}
}

func TestDisabledGROIsIdentity(t *testing.T) {
	g := &GRO{}
	batch := []*skb.SKB{tcpSeg(1, 0), tcpSeg(1, 1)}
	out := g.Coalesce(batch)
	if len(out) != 2 {
		t.Fatal("disabled GRO must not merge")
	}
	if g.SkbsOut != 0 && g.SegsIn != g.SkbsOut {
		t.Errorf("factor %d/%d, want 1", g.SegsIn, g.SkbsOut)
	}
}

func TestCoalesceEmptyAndSingle(t *testing.T) {
	g := New()
	if out := g.Coalesce(nil); len(out) != 0 {
		t.Error("empty batch")
	}
	if out := g.Coalesce([]*skb.SKB{tcpSeg(1, 5)}); len(out) != 1 {
		t.Error("single skb")
	}
}

// Property: coalescing conserves segments and bytes and preserves per-flow
// segment order.
func TestCoalesceConservationProperty(t *testing.T) {
	f := func(flowsRaw []uint8) bool {
		if len(flowsRaw) > 64 {
			flowsRaw = flowsRaw[:64]
		}
		g := New()
		nextSeq := map[uint64]uint64{}
		var batch []*skb.SKB
		totalSegs := 0
		for _, fr := range flowsRaw {
			flow := uint64(fr % 3)
			s := tcpSeg(flow, nextSeq[flow])
			nextSeq[flow]++
			batch = append(batch, s)
			totalSegs++
		}
		out := g.Coalesce(batch)
		gotSegs := 0
		gotBytes := 0
		lastEnd := map[uint64]uint64{}
		for _, s := range out {
			gotSegs += s.Segs
			gotBytes += s.WireLen
			if end, ok := lastEnd[s.FlowID]; ok && s.Seq < end {
				return false // per-flow order violated
			}
			lastEnd[s.FlowID] = s.EndSeq()
		}
		return gotSegs == totalSegs && gotBytes == totalSegs*1500
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
