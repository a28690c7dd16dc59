package traffic

import (
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

// sink collects delivered skbs, optionally acking a TCP sender to model an
// instantly-consuming receiver.
type sink struct {
	got   []*skb.SKB
	acker func(end uint64, at sim.Time)
	sched *sim.Scheduler
	limit int // stop acking after limit skbs (0 = always ack)
}

func (s *sink) Deliver(sk *skb.SKB) bool {
	s.got = append(s.got, sk)
	if s.acker != nil && (s.limit == 0 || len(s.got) <= s.limit) {
		s.acker(sk.EndSeq(), s.sched.Now())
	}
	return true
}

func TestSeqAlloc(t *testing.T) {
	var a SeqAlloc
	if a.Next(3) != 0 || a.Next(2) != 3 || a.Sent() != 5 {
		t.Error("sequence allocation wrong")
	}
}

func TestTCPSenderSegmentsMessages(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(10, s)
	snk := &sink{sched: s}
	tx := &TCPSender{
		FlowID: 1, MsgSize: 4000, Window: 8,
		Core: core, Sched: s, Net: snk,
		Cost: ClientCost{PerSeg: 100},
	}
	snk.acker = tx.Ack
	s.At(0, func() { tx.Start() })
	s.RunUntil(sim.Time(2 * sim.Millisecond))

	if len(snk.got) == 0 {
		t.Fatal("nothing sent")
	}
	// 4000-byte messages = 2 full MSS + 1 partial (1104).
	var sizes []int
	for _, sk := range snk.got[:3] {
		sizes = append(sizes, sk.PayloadLen)
	}
	if sizes[0] != MSS || sizes[1] != MSS || sizes[2] != 4000-2*MSS {
		t.Errorf("segment payloads %v", sizes)
	}
	if !snk.got[2].MsgEnd || snk.got[0].MsgEnd {
		t.Error("MsgEnd marking wrong")
	}
	if snk.got[0].MsgID != snk.got[2].MsgID || snk.got[3].MsgID != snk.got[0].MsgID+1 {
		t.Error("MsgID framing wrong")
	}
	// Sequences must be contiguous from 0.
	for i, sk := range snk.got {
		if sk.Seq != uint64(i) {
			t.Fatalf("seq %d at position %d", sk.Seq, i)
		}
	}
}

func TestTCPSenderWindowLimits(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(10, s)
	snk := &sink{sched: s} // never acks
	tx := &TCPSender{
		FlowID: 1, MsgSize: MSS, Window: 16,
		Core: core, Sched: s, Net: snk,
		Cost: ClientCost{PerSeg: 10},
	}
	s.At(0, func() { tx.Start() })
	s.RunUntil(sim.Time(sim.Millisecond))
	if len(snk.got) != 16 {
		t.Fatalf("sent %d segments without acks, want window of 16", len(snk.got))
	}
	if tx.Outstanding() != 16 {
		t.Errorf("Outstanding=%d", tx.Outstanding())
	}
	// Acking opens the window again.
	s.At(s.Now(), func() { tx.Ack(8, s.Now()) })
	s.RunUntil(s.Now().Add(sim.Millisecond))
	if len(snk.got) != 24 {
		t.Errorf("after ack of 8, sent %d, want 24", len(snk.got))
	}
}

func TestTCPSenderClientCoreLimitsRate(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(10, s)
	snk := &sink{sched: s}
	tx := &TCPSender{
		FlowID: 1, MsgSize: 16, Window: 64,
		Core: core, Sched: s, Net: snk,
		Cost: ClientCost{PerMsg: 1000, PerSeg: 500},
	}
	snk.acker = tx.Ack
	s.At(0, func() { tx.Start() })
	s.RunUntil(sim.Time(1500 * sim.Microsecond))
	// 1500ns per 16B message -> one message per 1.5µs -> ~1000 in 1.5ms.
	n := len(snk.got)
	if n < 900 || n > 1100 {
		t.Errorf("client-limited sender sent %d messages, want ~1000", n)
	}
}

func TestTCPSenderStop(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(10, s)
	snk := &sink{sched: s}
	tx := &TCPSender{FlowID: 1, MsgSize: MSS, Window: 4, Core: core, Sched: s, Net: snk, Cost: ClientCost{PerSeg: 10}}
	snk.acker = tx.Ack
	s.At(0, func() { tx.Start() })
	s.At(100, func() { tx.Stop() })
	s.RunUntil(sim.Time(sim.Millisecond))
	sent := len(snk.got)
	s.RunUntil(sim.Time(2 * sim.Millisecond))
	if len(snk.got) != sent {
		t.Error("sender kept transmitting after Stop")
	}
}

func TestUDPSenderFragmentsLargeDatagrams(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(10, s)
	snk := &sink{sched: s}
	tx := &UDPSender{
		FlowID: 2, MsgSize: 65536,
		Core: core, Sched: s, Net: snk,
		Cost: ClientCost{PerSeg: 100},
	}
	s.At(0, func() { tx.Start() })
	s.At(sim.Time(500*sim.Microsecond), func() { tx.Stop() })
	s.Run()
	wantFrags := (65536 + UDPFragPayload - 1) / UDPFragPayload // 45
	if len(snk.got) < wantFrags {
		t.Fatalf("only %d fragments delivered", len(snk.got))
	}
	lastEnd := 0
	for i := 0; i < wantFrags; i++ {
		sk := snk.got[i]
		if sk.MsgID != snk.got[0].MsgID {
			t.Fatal("fragment crossed message")
		}
		if i == wantFrags-1 {
			if !sk.MsgEnd {
				t.Error("last fragment must carry MsgEnd")
			}
			if sk.PayloadLen != 65536-(wantFrags-1)*UDPFragPayload {
				t.Errorf("tail fragment payload %d", sk.PayloadLen)
			}
		} else if sk.MsgEnd {
			t.Error("non-final fragment marked MsgEnd")
		}
		lastEnd += sk.PayloadLen
	}
	if lastEnd != 65536 {
		t.Errorf("fragments cover %d bytes, want 65536", lastEnd)
	}
}

func TestUDPSenderSaturatesClientCore(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(10, s)
	snk := &sink{sched: s}
	tx := &UDPSender{
		FlowID: 2, MsgSize: 1024,
		Core: core, Sched: s, Net: snk,
		Cost: ClientCost{PerSeg: 1000},
	}
	s.At(0, func() { tx.Start() })
	s.At(sim.Time(sim.Millisecond), func() { tx.Stop() })
	s.Run()
	// 1000ns per datagram -> ~1000 datagrams in 1ms.
	if n := int(tx.MsgsSent); n < 900 || n > 1100 {
		t.Errorf("sent %d datagrams, want ~1000", n)
	}
	util := float64(core.BusyTotal()) / float64(sim.Millisecond)
	if util < 0.95 {
		t.Errorf("client core %.0f%% busy, want saturated", util*100)
	}
}

func TestThreeUDPClientsShareSequenceSpace(t *testing.T) {
	s := sim.NewScheduler(1)
	snk := &sink{sched: s}
	seq := &SeqAlloc{}
	for i := 0; i < 3; i++ {
		core := sim.NewCore(10+i, s)
		tx := &UDPSender{
			FlowID: 9, MsgSize: UDPFragPayload,
			Core: core, Sched: s, Net: snk,
			Cost: ClientCost{PerSeg: 500}, Seq: seq,
			MsgBase: uint64(i) << 32,
		}
		s.At(0, func() { tx.Start() })
		s.At(sim.Time(100*sim.Microsecond), tx.Stop)
	}
	s.Run()
	seen := map[uint64]bool{}
	for _, sk := range snk.got {
		if seen[sk.Seq] {
			t.Fatalf("duplicate sequence %d across clients", sk.Seq)
		}
		seen[sk.Seq] = true
	}
	if len(seen) < 500 {
		t.Errorf("only %d segments from 3 clients", len(seen))
	}
}

// TestTCPSenderStartAllocs pins the sender's working set: Start fills the
// whole window at once, and the queued segments wait as values in a lane
// whose ring doubles, so a 128x larger window costs a handful of extra
// allocations, not a pooled SKB and an event carrier per segment.
func TestTCPSenderStartAllocs(t *testing.T) {
	startAllocs := func(window int) float64 {
		return testing.AllocsPerRun(20, func() {
			s := sim.NewScheduler(1)
			tx := &TCPSender{
				FlowID: 1, MsgSize: 65536, Window: window,
				Core: sim.NewCore(0, s), Sched: s, Net: &sink{sched: s},
				Cost: ClientCost{PerSeg: 100}, Pool: &skb.Pool{},
			}
			tx.Start()
			if tx.Outstanding() != window {
				t.Fatalf("Start queued %d segments, want the window of %d", tx.Outstanding(), window)
			}
		})
	}
	small, large := startAllocs(16), startAllocs(2048)
	// log2(2048/16) = 7 ring doublings, plus slack for map growth.
	if large-small > 16 {
		t.Fatalf("Start allocates %.0f at window 2048 vs %.0f at window 16: want O(log W) growth", large, small)
	}
}
