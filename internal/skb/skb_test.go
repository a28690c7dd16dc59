package skb

import (
	"testing"
	"testing/quick"
)

func seg(flow, seq uint64) *SKB {
	return &SKB{FlowID: flow, Proto: TCP, Seq: seq, Segs: 1, WireLen: 1500, PayloadLen: 1448}
}

func TestCanMergeConsecutiveSameFlow(t *testing.T) {
	a, b := seg(1, 0), seg(1, 1)
	if !a.CanMerge(b) {
		t.Fatal("consecutive same-flow TCP segments must merge")
	}
	a.Merge(b)
	if a.Segs != 2 || a.WireLen != 3000 || a.PayloadLen != 2896 {
		t.Errorf("merged skb wrong: %+v", a)
	}
	if a.EndSeq() != 2 {
		t.Errorf("EndSeq %d, want 2", a.EndSeq())
	}
}

func TestCannotMergeGapsOrOtherFlows(t *testing.T) {
	a := seg(1, 0)
	if a.CanMerge(seg(1, 2)) {
		t.Error("gap must not merge")
	}
	if a.CanMerge(seg(2, 1)) {
		t.Error("different flow must not merge")
	}
	udp := seg(1, 1)
	udp.Proto = UDP
	if a.CanMerge(udp) {
		t.Error("UDP must not merge (GRO ineffective for UDP, per the paper)")
	}
	encap := seg(1, 1)
	encap.Encap = true
	if a.CanMerge(encap) {
		t.Error("encapsulated segment must not merge with decapsulated")
	}
	end := seg(1, 0)
	end.MsgEnd = true
	if end.CanMerge(seg(1, 1)) {
		t.Error("message boundary must stop merging")
	}
}

func TestMergeChainsAccumulate(t *testing.T) {
	a := seg(1, 10)
	for i := uint64(11); i < 20; i++ {
		b := seg(1, i)
		if !a.CanMerge(b) {
			t.Fatalf("seq %d should merge", i)
		}
		a.Merge(b)
	}
	if a.Segs != 10 || a.Seq != 10 || a.EndSeq() != 20 {
		t.Errorf("chain merge wrong: %+v", a)
	}
}

func TestMergeCarriesData(t *testing.T) {
	a, b := seg(1, 0), seg(1, 1)
	a.Data = []byte{1, 2}
	b.Data = []byte{3}
	a.Merge(b)
	// The merge chains b's window as a frag reference — no copy — so the
	// head window keeps its own bytes and the logical stream is read via
	// Bytes (or part-wise via Parts/Part).
	if string(a.Bytes()) != "\x01\x02\x03" {
		t.Errorf("merged stream %v", a.Bytes())
	}
	if string(a.Data) != "\x01\x02" {
		t.Errorf("head window %v, want untouched {1,2}", a.Data)
	}
	if a.Parts() != 2 || string(a.Part(1)) != "\x03" {
		t.Errorf("parts wrong: n=%d", a.Parts())
	}
	if b.Data != nil {
		t.Errorf("absorbed skb still holds bytes: %v", b.Data)
	}
}

func TestMergeChainTransfersToNewHead(t *testing.T) {
	a, b, c := seg(1, 0), seg(1, 1), seg(1, 2)
	a.Data, b.Data, c.Data = []byte{1}, []byte{2}, []byte{3}
	b.Merge(c) // b now carries a chain
	a.Merge(b) // a must absorb both b's window and its chain, in order
	if string(a.Bytes()) != "\x01\x02\x03" {
		t.Errorf("stream after chained merge: %v", a.Bytes())
	}
	if len(b.frags) != 0 || b.Data != nil {
		t.Error("absorbed skb kept its chain")
	}
}

func TestPoolRecycles(t *testing.T) {
	var p Pool
	a := p.Get()
	a.FlowID = 99
	a.Data = []byte{1}
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Error("pool did not recycle")
	}
	if b.FlowID != 0 || b.Data != nil {
		t.Error("recycled skb not zeroed")
	}
	if p.Allocs != 1 {
		t.Errorf("Allocs=%d, want 1", p.Allocs)
	}
	if p.Get() == b {
		t.Error("second Get must allocate fresh")
	}
	p.Put(nil) // must not panic
}

// Property: merging any consecutive run preserves total segments and bytes.
func TestMergeConservationProperty(t *testing.T) {
	f := func(lens []uint16) bool {
		if len(lens) == 0 {
			return true
		}
		if len(lens) > 64 {
			lens = lens[:64]
		}
		var totalBytes, totalPayload int
		skbs := make([]*SKB, len(lens))
		seqNo := uint64(0)
		for i, l := range lens {
			b := int(l%1400) + 100
			skbs[i] = &SKB{FlowID: 7, Proto: TCP, Seq: seqNo, Segs: 1, WireLen: b, PayloadLen: b - 52}
			totalBytes += b
			totalPayload += b - 52
			seqNo++
		}
		head := skbs[0]
		for _, s := range skbs[1:] {
			if !head.CanMerge(s) {
				return false
			}
			head.Merge(s)
		}
		return head.Segs == len(lens) &&
			head.WireLen == totalBytes &&
			head.PayloadLen == totalPayload &&
			head.EndSeq() == uint64(len(lens))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProtoString(t *testing.T) {
	if TCP.String() != "TCP" || UDP.String() != "UDP" {
		t.Error("proto names wrong")
	}
}

func TestSKBString(t *testing.T) {
	s := seg(3, 14)
	if got := s.String(); got != "skb{flow=3 seq=14 segs=1 bytes=1500 mf=0}" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseProto(t *testing.T) {
	for name, want := range map[string]Proto{"tcp": TCP, "TCP": TCP, "udp": UDP, "Udp": UDP} {
		if got, err := ParseProto(name); err != nil || got != want {
			t.Errorf("ParseProto(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"sctp", "", "tcp "} {
		if _, err := ParseProto(name); err == nil {
			t.Errorf("ParseProto(%q) accepted an unknown transport", name)
		}
	}
}
