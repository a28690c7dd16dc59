package proto

import (
	"testing"

	"mflow/internal/skb"
)

func TestTCPReceiverKeepsFirstDuplicateParked(t *testing.T) {
	var delivered []*skb.SKB
	var dupAcks []uint64
	r := &TCPReceiver{
		Deliver: func(s *skb.SKB) { delivered = append(delivered, s) },
		DupAck:  func(e uint64) { dupAcks = append(dupAcks, e) },
	}
	first := seg(2, 1)
	second := seg(2, 1)
	r.Rx(first, nil)
	r.Rx(second, nil)
	if len(r.ooo) != 1 {
		t.Fatalf("pending = %d, want 1", len(r.ooo))
	}
	if r.DupSegments != 1 || r.OOOArrivals != 1 {
		t.Fatalf("dup=%d ooo=%d, want 1/1", r.DupSegments, r.OOOArrivals)
	}
	r.Rx(seg(0, 2), nil) // fills [0,2): drains the parked skb
	if len(delivered) != 2 || delivered[1] != first {
		t.Fatalf("must deliver the FIRST parked copy, got %v", delivered)
	}
	// Every out-of-order or duplicate arrival must have signalled a dup ACK.
	if len(dupAcks) != 2 || dupAcks[0] != 0 || dupAcks[1] != 0 {
		t.Fatalf("dup acks %v, want [0 0]", dupAcks)
	}
}

func TestTCPReceiverDiscardsCoveredData(t *testing.T) {
	var delivered []*skb.SKB
	var dupAcks []uint64
	r := &TCPReceiver{
		Deliver: func(s *skb.SKB) { delivered = append(delivered, s) },
		DupAck:  func(e uint64) { dupAcks = append(dupAcks, e) },
	}
	r.Rx(seg(0, 2), nil)
	r.Rx(seg(0, 2), nil) // full duplicate
	r.Rx(seg(1, 2), nil) // partial overlap: discarded whole, dup-ACKed
	if len(delivered) != 1 {
		t.Fatalf("delivered %d skbs, want 1", len(delivered))
	}
	if r.DupSegments != 4 {
		t.Fatalf("DupSegments = %d, want 4", r.DupSegments)
	}
	if len(dupAcks) != 2 || dupAcks[0] != 2 || dupAcks[1] != 2 {
		t.Fatalf("dup acks %v, want [2 2] (steering retransmission to Expected)", dupAcks)
	}
	if r.Expected != 2 {
		t.Fatalf("Expected = %d, want 2", r.Expected)
	}
}

func TestTCPReceiverPrunesOFOQueue(t *testing.T) {
	r := &TCPReceiver{Deliver: func(*skb.SKB) {}, OFOCap: 2}
	r.Rx(seg(5, 1), nil)
	r.Rx(seg(3, 1), nil)
	r.Rx(seg(9, 1), nil) // exceeds the cap: the highest sequence goes
	if len(r.ooo) != 2 {
		t.Fatalf("pending = %d, want 2", len(r.ooo))
	}
	if r.OFOPruned != 1 {
		t.Fatalf("OFOPruned = %d, want 1", r.OFOPruned)
	}
	if _, still := r.ooo[9]; still {
		t.Fatal("seq 9 should have been pruned")
	}
	for _, keep := range []uint64{3, 5} {
		if _, ok := r.ooo[keep]; !ok {
			t.Fatalf("seq %d should survive pruning", keep)
		}
	}
}

func TestTCPReceiverSweepsStraddledParked(t *testing.T) {
	var delivered []*skb.SKB
	r := &TCPReceiver{Deliver: func(s *skb.SKB) { delivered = append(delivered, s) }}
	r.Rx(seg(3, 2), nil) // parked [3,5)
	r.Rx(seg(4, 2), nil) // parked [4,6) — overlaps the first
	r.Rx(seg(0, 3), nil) // fills [0,3): drain delivers [3,5), straddling key 4
	if len(r.ooo) != 0 {
		t.Fatalf("pending = %d, want 0 (straddled entry swept)", len(r.ooo))
	}
	if r.DupSegments != 2 {
		t.Fatalf("DupSegments = %d, want 2 (the swept skb's segments)", r.DupSegments)
	}
	if len(delivered) != 2 || r.Expected != 5 {
		t.Fatalf("delivered %d skbs, Expected=%d; want 2 skbs and Expected 5", len(delivered), r.Expected)
	}
}

// TestTCPReceiverMissingEnumeratesHoles: the SACK-style scoreboard walks the
// out-of-order coverage from Expected, handling GRO super-packet ranges,
// overlap, and the result cap.
func TestTCPReceiverMissingEnumeratesHoles(t *testing.T) {
	r := &TCPReceiver{Deliver: func(*skb.SKB) {}}
	if got := r.Missing(10); got != nil {
		t.Fatalf("empty queue: Missing = %v, want nil", got)
	}
	r.Rx(seg(0, 2), nil) // Expected -> 2
	r.Rx(seg(3, 2), nil) // covers [3,5): hole {2}
	r.Rx(seg(7, 1), nil) // covers [7,8): holes {5,6}
	r.Rx(seg(4, 3), nil) // overlap [4,7): parks (different key), fills 5,6
	got := r.Missing(10)
	want := []uint64{2}
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	// The cap truncates enumeration inside a wide hole.
	r.Rx(seg(20, 1), nil) // holes {2, 8..20}
	if got := r.Missing(3); len(got) != 3 || got[0] != 2 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("capped Missing = %v, want [2 8 9]", got)
	}
	// Filling the front hole drains [3,5); the straddling [4,7) skb is
	// then below Expected and discarded whole (BSD semantics), reopening
	// holes {5,6} — which the scoreboard must re-advertise so the sender
	// retransmits them.
	r.Rx(seg(2, 1), nil)
	if r.Expected != 5 {
		t.Fatalf("Expected = %d after fill, want 5", r.Expected)
	}
	got = r.Missing(100)
	want = []uint64{5, 6}
	for s := uint64(8); s < 20; s++ {
		want = append(want, s)
	}
	if len(got) != len(want) {
		t.Fatalf("Missing after drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Missing after drain = %v, want %v", got, want)
		}
	}
}
