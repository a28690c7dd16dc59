package proto

import (
	"testing"
	"testing/quick"

	"mflow/internal/netdev"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

func seg(seq uint64, segs int) *skb.SKB {
	return &skb.SKB{FlowID: 1, Proto: skb.TCP, Seq: seq, Segs: segs, WireLen: 1500 * segs, PayloadLen: 1448 * segs}
}

func TestTCPReceiverInOrderPassthrough(t *testing.T) {
	var got []uint64
	r := &TCPReceiver{Deliver: func(s *skb.SKB) { got = append(got, s.Seq) }}
	for i := uint64(0); i < 5; i++ {
		r.Rx(seg(i, 1), nil)
	}
	if len(got) != 5 || r.OOOArrivals != 0 {
		t.Fatalf("got %v ooo=%d", got, r.OOOArrivals)
	}
	if r.Expected != 5 {
		t.Errorf("Expected=%d, want 5", r.Expected)
	}
}

func TestTCPReceiverReordersAndDrains(t *testing.T) {
	var got []uint64
	r := &TCPReceiver{Deliver: func(s *skb.SKB) { got = append(got, s.Seq) }}
	r.Rx(seg(2, 1), nil)
	r.Rx(seg(1, 1), nil)
	if len(got) != 0 {
		t.Fatal("nothing in order yet")
	}
	r.Rx(seg(0, 1), nil)
	want := []uint64{0, 1, 2}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
	if r.OOOArrivals != 2 {
		t.Errorf("OOOArrivals=%d, want 2", r.OOOArrivals)
	}
	if r.OOOPeak != 2 {
		t.Errorf("OOOPeak=%d, want 2", r.OOOPeak)
	}
	if len(r.ooo) != 0 {
		t.Errorf("Pending=%d, want 0", len(r.ooo))
	}
}

func TestTCPReceiverMergedSKBRanges(t *testing.T) {
	var got []uint64
	r := &TCPReceiver{Deliver: func(s *skb.SKB) { got = append(got, s.Seq) }}
	r.Rx(seg(0, 4), nil) // covers 0-3
	r.Rx(seg(8, 2), nil) // ooo
	r.Rx(seg(4, 4), nil) // covers 4-7, drains 8-9
	if len(got) != 3 || r.Expected != 10 {
		t.Fatalf("got %v expected=%d", got, r.Expected)
	}
}

func TestTCPReceiverChargesOOOCost(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(1, s)
	r := &TCPReceiver{OOOQueueCost: 100, Deliver: func(*skb.SKB) {}}
	s.At(0, func() {
		r.Rx(seg(1, 1), core) // park: +100
		r.Rx(seg(0, 1), core) // deliver + drain: +100
	})
	s.Run()
	if core.BusyTotal() != 200 {
		t.Errorf("ooo cost charged %v, want 200", core.BusyTotal())
	}
	if core.BusyByTag()["tcp-ofo"] != 200 {
		t.Error("ooo cost not tagged tcp-ofo")
	}
}

// Property: any permutation of contiguous segments is delivered exactly
// once, in order — TCP's invariant under arbitrary reordering.
func TestTCPReceiverPermutationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := sim.NewRand(seed)
		perm := permutation(r, n)
		var got []uint64
		rx := &TCPReceiver{Deliver: func(s *skb.SKB) { got = append(got, s.Seq) }}
		for _, p := range perm {
			rx.Rx(seg(uint64(p), 1), nil)
		}
		if len(got) != n || len(rx.ooo) != 0 {
			return false
		}
		for i, v := range got {
			if v != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPReceiverDeliversEverythingCountsOOO(t *testing.T) {
	var got []uint64
	r := &UDPReceiver{Deliver: func(s *skb.SKB) { got = append(got, s.Seq) }}
	for _, q := range []uint64{0, 2, 1, 3} {
		r.Rx(seg(q, 1), nil)
	}
	if len(got) != 4 {
		t.Fatalf("UDP must deliver all, got %d", len(got))
	}
	if got[1] != 2 || got[2] != 1 {
		t.Error("UDP must not reorder")
	}
	if r.OOOArrivals != 1 {
		t.Errorf("OOOArrivals=%d, want 1", r.OOOArrivals)
	}
}

func TestSocketDeliveryAndLatency(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(0, s)
	sock := NewSocket(skb.TCP, core, s, netdev.Cost{PerByte: 0.1}, 0)
	var acked uint64
	sock.Ack = func(end uint64, _ sim.Time) { acked = end }
	var msgs []uint64
	sock.OnMessage = func(id uint64, _ *skb.SKB, _ sim.Time) { msgs = append(msgs, id) }

	s.At(0, func() {
		a := seg(0, 1)
		a.SentAt = 0
		a.MsgID = 7
		a.MsgEnd = true
		sock.Enqueue(a)
	})
	s.Run()
	if sock.Bytes != 1448 || sock.Msgs != 1 || sock.Packets != 1 {
		t.Errorf("counters: %d bytes %d msgs %d pkts", sock.Bytes, sock.Msgs, sock.Packets)
	}
	if acked != 1 {
		t.Errorf("acked=%d, want 1", acked)
	}
	if len(msgs) != 1 || msgs[0] != 7 {
		t.Errorf("OnMessage got %v", msgs)
	}
	if sock.Latency.Count() != 1 {
		t.Error("latency not recorded")
	}
	// copy cost 0.1 ns/byte * 1500 wire bytes = 150ns busy on core0
	if core.BusyTotal() != 150 {
		t.Errorf("copy charged %v, want 150", core.BusyTotal())
	}
}

func TestSocketBoundedQueueDrops(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(0, s)
	sock := NewSocket(skb.UDP, core, s, netdev.Cost{PerSKB: 1000}, 4)
	s.At(0, func() {
		for i := uint64(0); i < 10; i++ {
			sock.Enqueue(seg(i, 1))
		}
	})
	s.Run()
	if sock.Dropped() != 6 {
		t.Errorf("Dropped=%d, want 6", sock.Dropped())
	}
}

func TestSocketNonFinalSegmentsNoMessage(t *testing.T) {
	s := sim.NewScheduler(1)
	core := sim.NewCore(0, s)
	sock := NewSocket(skb.TCP, core, s, netdev.Cost{}, 0)
	s.At(0, func() {
		sock.Enqueue(seg(0, 1)) // MsgEnd false
	})
	s.Run()
	if sock.Msgs != 0 || sock.Latency.Count() != 0 {
		t.Error("non-final segment must not complete a message")
	}
	if sock.Bytes != 1448 {
		t.Error("bytes still counted")
	}
}

// permutation returns a pseudo-random permutation of [0, n) drawn from r
// (inside-out Fisher–Yates).
func permutation(r *sim.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
