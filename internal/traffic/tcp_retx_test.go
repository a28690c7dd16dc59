package traffic

import (
	"testing"

	"mflow/internal/proto"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// lossyLink drops selected first transmissions, then forwards everything
// (retransmissions included) to a TCP receiver that acks on consumption.
type lossyLink struct {
	drop map[uint64]int // seq -> remaining drops
	rx   *proto.TCPReceiver
}

func (l *lossyLink) Deliver(s *skb.SKB) bool {
	if n := l.drop[s.Seq]; n > 0 {
		l.drop[s.Seq] = n - 1
		return false
	}
	l.rx.Rx(s, nil)
	return true
}

// buildLossy wires sender → lossy link → TCP receiver → instant-consumption
// ACKs, with the dup-ACK path connected, all on one scheduler.
func buildLossy(s *sim.Scheduler, drop map[uint64]int, msgSize, window int) (*TCPSender, *proto.TCPReceiver, *[]uint64) {
	core := sim.NewCore(10, s)
	delivered := &[]uint64{}
	tx := &TCPSender{
		FlowID: 1, MsgSize: msgSize, Window: window,
		Core: core, Sched: s,
		NetDelay: 5 * sim.Microsecond,
		Cost:     ClientCost{PerSeg: 100},
		Reliable: true, InitialRTO: 300 * sim.Microsecond,
	}
	rx := &proto.TCPReceiver{}
	rx.Deliver = func(sk *skb.SKB) {
		*delivered = append(*delivered, sk.Seq)
		end := sk.EndSeq()
		s.After(sim.Microsecond, func() { tx.Ack(end, s.Now()) })
	}
	rx.DupAck = func(e uint64) { s.After(sim.Microsecond, func() { tx.DupAck(e) }) }
	tx.Net = &lossyLink{drop: drop, rx: rx}
	return tx, rx, delivered
}

func inOrder(seqs []uint64) bool {
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			return false
		}
	}
	return true
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	s := sim.NewScheduler(1)
	tx, rx, delivered := buildLossy(s, map[uint64]int{5: 1}, 1448, 32)
	s.At(0, func() { tx.Start() })
	s.RunUntil(sim.Time(5 * sim.Millisecond))
	tx.Stop()

	if tx.FastRetransmits < 1 {
		t.Fatalf("fast retransmits = %d, want >= 1 (triple dup-ACK)", tx.FastRetransmits)
	}
	if tx.Retransmits < 1 {
		t.Fatalf("retransmits = %d, want >= 1", tx.Retransmits)
	}
	if !inOrder(*delivered) {
		t.Fatal("TCP delivery left order")
	}
	if rx.Expected < 100 {
		t.Fatalf("flow stalled: Expected = %d after 5ms", rx.Expected)
	}
	if m := rx.Missing(1); len(m) != 0 {
		t.Fatalf("ooo queue not drained: hole at %d", m[0])
	}
}

func TestRTORecoversTailLoss(t *testing.T) {
	s := sim.NewScheduler(1)
	// Drop the whole remaining window (seqs 3..6) on first transmission:
	// no later arrivals exist to generate dup ACKs, so only the
	// retransmission timer can restart the flow.
	drop := map[uint64]int{3: 1, 4: 1, 5: 1, 6: 1}
	tx, rx, delivered := buildLossy(s, drop, 1448, 4)
	s.At(0, func() { tx.Start() })
	s.RunUntil(sim.Time(20 * sim.Millisecond))
	tx.Stop()

	if tx.RTOTimeouts < 1 {
		t.Fatalf("RTO timeouts = %d, want >= 1", tx.RTOTimeouts)
	}
	if !inOrder(*delivered) {
		t.Fatal("TCP delivery left order")
	}
	if rx.Expected < 50 {
		t.Fatalf("flow stalled after tail loss: Expected = %d", rx.Expected)
	}
}

func TestBurstLossAllSegmentsEventuallyDelivered(t *testing.T) {
	s := sim.NewScheduler(1)
	// A 12-segment burst plus scattered singles, some dropped twice.
	drop := map[uint64]int{}
	for q := uint64(20); q < 32; q++ {
		drop[q] = 1
	}
	drop[25] = 2
	drop[40] = 1
	drop[80] = 2
	tx, rx, delivered := buildLossy(s, drop, 4000, 64)
	s.At(0, func() { tx.Start() })
	s.RunUntil(sim.Time(50 * sim.Millisecond))
	tx.Stop()

	if !inOrder(*delivered) {
		t.Fatal("TCP delivery left order")
	}
	if rx.Expected < 200 {
		t.Fatalf("flow did not recover from burst loss: Expected = %d", rx.Expected)
	}
	if m := rx.Missing(1); len(m) != 0 {
		t.Fatalf("ooo queue not drained: hole at %d", m[0])
	}
	// Coverage must be contiguous: count delivered segments == Expected.
	var segs uint64
	for range *delivered {
		segs++
	}
	if segs != rx.Expected {
		t.Fatalf("delivered %d skbs but Expected=%d (each skb is one segment here)", segs, rx.Expected)
	}
}

func TestReliableIdleWithoutLossMatchesPlain(t *testing.T) {
	run := func(reliable bool) (uint64, uint64) {
		s := sim.NewScheduler(1)
		core := sim.NewCore(10, s)
		snk := &sink{sched: s}
		tx := &TCPSender{
			FlowID: 1, MsgSize: 1448, Window: 8,
			Core: core, Sched: s, Net: snk,
			Cost:     ClientCost{PerSeg: 100},
			Reliable: reliable, InitialRTO: 2 * sim.Millisecond,
		}
		snk.acker = tx.Ack
		s.At(0, func() { tx.Start() })
		s.RunUntil(sim.Time(2 * sim.Millisecond))
		return tx.SegsSent, tx.Retransmits + tx.RTOTimeouts + tx.FastRetransmits
	}
	plainSegs, _ := run(false)
	relSegs, faults := run(true)
	if faults != 0 {
		t.Fatalf("lossless reliable run recovered %d times, want 0", faults)
	}
	if plainSegs != relSegs {
		t.Fatalf("reliable mode changed lossless throughput: %d vs %d segs", relSegs, plainSegs)
	}
}

// TestSACKSweepRepairsScatteredLossInOneRound: with the receiver's hole map
// wired (TCPSender.Missing), entering recovery once must repair every known
// hole without a timer expiry per hole — scattered 1%-style loss cannot
// serialize into one-RTO-per-segment recovery.
func TestSACKSweepRepairsScatteredLossInOneRound(t *testing.T) {
	s := sim.NewScheduler(1)
	drop := map[uint64]int{10: 1, 20: 1, 30: 1, 40: 1, 50: 1}
	tx, rx, delivered := buildLossy(s, drop, 1448, 64)
	tx.Missing = rx.Missing
	s.At(0, func() { tx.Start() })
	s.RunUntil(sim.Time(10 * sim.Millisecond))
	tx.Stop()

	if !inOrder(*delivered) {
		t.Fatal("TCP delivery left order")
	}
	if rx.Expected < 200 {
		t.Fatalf("flow stalled: Expected = %d", rx.Expected)
	}
	if m := rx.Missing(1); len(m) != 0 {
		t.Fatalf("ooo queue not drained: hole at %d", m[0])
	}
	if tx.Retransmits < 5 {
		t.Fatalf("retransmits = %d, want >= 5 (one per hole)", tx.Retransmits)
	}
	// The sweep repairs all holes from the first recovery trigger; the
	// timer may fire for the first hole but must not serialize the rest.
	if tx.RTOTimeouts > 2 {
		t.Fatalf("RTO timeouts = %d: holes recovered serially despite the scoreboard", tx.RTOTimeouts)
	}
}

// TestSACKSweepRetriesLostRetransmission: when a retransmission is itself
// lost, the RTO-driven sweep overrides the holdoff and resends it.
func TestSACKSweepRetriesLostRetransmission(t *testing.T) {
	s := sim.NewScheduler(1)
	drop := map[uint64]int{8: 3} // original + two retransmissions lost
	tx, rx, delivered := buildLossy(s, drop, 1448, 16)
	tx.Missing = rx.Missing
	s.At(0, func() { tx.Start() })
	s.RunUntil(sim.Time(20 * sim.Millisecond))
	tx.Stop()

	if !inOrder(*delivered) {
		t.Fatal("TCP delivery left order")
	}
	if rx.Expected < 100 {
		t.Fatalf("flow never recovered a thrice-lost segment: Expected = %d", rx.Expected)
	}
	if m := rx.Missing(1); len(m) != 0 {
		t.Fatalf("ooo queue not drained: hole at %d", m[0])
	}
}
