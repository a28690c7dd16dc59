package netdev

import (
	"testing"

	"mflow/internal/packet"
	"mflow/internal/skb"
)

func TestCostOf(t *testing.T) {
	c := Cost{PerSKB: 100, PerSeg: 10, PerByte: 0.1}
	s := &skb.SKB{Segs: 4, WireLen: 6000}
	// 100 + 4*10 + 0.1*6000 = 740
	if got := c.Of(s); got != 740 {
		t.Errorf("cost %v, want 740", got)
	}
}

func TestCostOfZeroAndNegativeClamp(t *testing.T) {
	var c Cost
	if c.Of(&skb.SKB{Segs: 1, WireLen: 100}) != 0 {
		t.Error("zero cost model should cost 0")
	}
}

func TestDeviceApply(t *testing.T) {
	called := false
	d := &Device{Name: "x", Action: func(*skb.SKB) { called = true }}
	d.Apply(&skb.SKB{})
	if !called {
		t.Error("action not invoked")
	}
	(&Device{Name: "y"}).Apply(&skb.SKB{}) // nil action must not panic
}

func TestVXLANDecapSynthetic(t *testing.T) {
	v := &VXLAN{VNI: 7}
	s := &skb.SKB{Segs: 2, WireLen: 3000 + 2*packet.OverlayOverhead, Encap: true}
	if err := v.Decap(s); err != nil {
		t.Fatal(err)
	}
	if s.Encap {
		t.Error("skb still encapsulated")
	}
	if s.WireLen != 3000 {
		t.Errorf("wire len %d, want 3000", s.WireLen)
	}
	if v.Decapped != 1 {
		t.Errorf("Decapped=%d", v.Decapped)
	}
	if err := v.Decap(s); err == nil {
		t.Error("double decap must fail")
	}
}

func TestVXLANEncapDecapWire(t *testing.T) {
	src := packet.FlowAddr{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.Addr4(172, 17, 0, 2), Port: 1000}
	dst := packet.FlowAddr{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.Addr4(172, 17, 0, 3), Port: 2000}
	inner := packet.BuildUDPFrame(src, dst, 1, []byte("payload"))

	v := &VXLAN{
		VNI:   42,
		Local: packet.Addr4(10, 0, 0, 1), Remote: packet.Addr4(10, 0, 0, 2),
		LocalMAC: packet.MAC{2, 0, 0, 0, 1, 1}, RemoteMAC: packet.MAC{2, 0, 0, 0, 1, 2},
	}
	s := &skb.SKB{Segs: 1, WireLen: len(inner), Data: append([]byte(nil), inner...)}
	v.Encap(s)
	if !s.Encap || s.WireLen != len(inner)+packet.OverlayOverhead {
		t.Fatalf("encap accounting wrong: %+v", s)
	}
	if len(s.Data) != len(inner)+packet.OverlayOverhead {
		t.Fatalf("encap bytes wrong: %d", len(s.Data))
	}
	if err := v.Decap(s); err != nil {
		t.Fatal(err)
	}
	if string(s.Data) != string(inner) {
		t.Error("decap did not recover inner frame")
	}
	if s.WireLen != len(inner) {
		t.Errorf("wire len %d after decap, want %d", s.WireLen, len(inner))
	}
}

func TestVXLANDecapWrongVNI(t *testing.T) {
	inner := packet.BuildUDPFrame(
		packet.FlowAddr{IP: packet.Addr4(1, 1, 1, 1), Port: 1},
		packet.FlowAddr{IP: packet.Addr4(2, 2, 2, 2), Port: 2}, 0, []byte("x"))
	frame := packet.EncapVXLAN(packet.MAC{}, packet.MAC{}, packet.Addr4(10, 0, 0, 1), packet.Addr4(10, 0, 0, 2), 99, 0, inner)
	v := &VXLAN{VNI: 7}
	s := &skb.SKB{Segs: 1, WireLen: len(frame), Encap: true, Data: frame}
	if err := v.Decap(s); err == nil {
		t.Fatal("wrong VNI must be rejected")
	}
	if v.Errors != 1 {
		t.Errorf("Errors=%d, want 1", v.Errors)
	}
	if !s.Encap {
		t.Error("failed decap must leave skb encapsulated")
	}
}

func TestVXLANRxDevice(t *testing.T) {
	v := &VXLAN{VNI: 1}
	d := v.RxDevice(Cost{PerSKB: 50})
	s := &skb.SKB{Segs: 1, WireLen: 1500 + packet.OverlayOverhead, Encap: true}
	if d.CostOf(s) != 50 {
		t.Error("cost not applied")
	}
	d.Apply(s)
	if s.Encap {
		t.Error("RxDevice action must decap")
	}
	if d.Name != "vxlan" {
		t.Error("device name")
	}
}

func TestBridgeLearnsAndForwards(t *testing.T) {
	b := NewBridge()
	var got0, got1, got2 []*skb.SKB
	p0 := b.AttachPort(func(s *skb.SKB) { got0 = append(got0, s) })
	p1 := b.AttachPort(func(s *skb.SKB) { got1 = append(got1, s) })
	b.AttachPort(func(s *skb.SKB) { got2 = append(got2, s) })

	macA := packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB := packet.MAC{2, 0, 0, 0, 0, 0xb}

	// Unknown destination floods to all other ports.
	s1 := &skb.SKB{Seq: 1}
	b.Forward(p0, macA, macB, s1)
	if b.Flooded != 1 || len(got1) != 1 || len(got2) != 1 || len(got0) != 0 {
		t.Fatalf("flood wrong: flooded=%d ports=%d/%d/%d", b.Flooded, len(got0), len(got1), len(got2))
	}
	// macA is now learned on p0: replies unicast back.
	s2 := &skb.SKB{Seq: 2}
	b.Forward(p1, macB, macA, s2)
	if b.Forwarded != 1 || len(got0) != 1 {
		t.Fatalf("unicast wrong: forwarded=%d got0=%d", b.Forwarded, len(got0))
	}
	if p, ok := b.Lookup(macB); !ok || p != p1 {
		t.Error("macB not learned on p1")
	}
	// Destination learned on the ingress port: flood (split horizon).
	b.Forward(p0, macA, macA, &skb.SKB{})
	if b.Flooded != 2 {
		t.Error("same-port destination should flood, not loop back")
	}
}

func TestBridgeFDBAging(t *testing.T) {
	b := NewBridge()
	b.MaxAge = 1000
	var got0, got1, got2 int
	p0 := b.AttachPort(func(*skb.SKB) { got0++ })
	p1 := b.AttachPort(func(*skb.SKB) { got1++ })
	b.AttachPort(func(*skb.SKB) { got2++ })
	_ = p1

	macA := packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB := packet.MAC{2, 0, 0, 0, 0, 0xb}

	// Teach macB on p1 at t=0, then forward toward it within MaxAge:
	// unicast.
	b.LearnAt(macB, p1, 0)
	if b.Learned != 1 {
		t.Fatalf("Learned=%d, want 1", b.Learned)
	}
	b.ForwardAt(p0, macA, macB, &skb.SKB{}, 500)
	if b.Forwarded != 1 || got1 != 1 || got2 != 0 {
		t.Fatalf("fresh entry should unicast: forwarded=%d got1=%d got2=%d", b.Forwarded, got1, got2)
	}
	// Refreshing via LearnAt does not recount Learned.
	b.LearnAt(macB, p1, 600)
	if b.Learned != 2 { // macA was learned by ForwardAt above
		t.Fatalf("Learned=%d, want 2 (refresh must not count)", b.Learned)
	}
	// Past MaxAge the entry expires: the next lookup deletes it, counts
	// Aged, and forwarding floods again.
	b.ForwardAt(p0, macA, macB, &skb.SKB{}, 2000)
	if b.Aged != 1 || b.Flooded != 1 || got1 != 2 || got2 != 1 {
		t.Fatalf("aged entry should flood: aged=%d flooded=%d got1=%d got2=%d",
			b.Aged, b.Flooded, got1, got2)
	}
	if _, ok := b.Lookup(macB); ok {
		t.Error("aged entry still present ageing-obliviously")
	}
	// Relearning after ageing counts as a fresh insertion.
	b.LearnAt(macB, p1, 2100)
	if b.Learned != 3 {
		t.Errorf("Learned=%d, want 3 after relearn", b.Learned)
	}
	// MaxAge == 0 never ages (the pre-fabric permanent FDB).
	b2 := NewBridge()
	b2.AttachPort(func(*skb.SKB) {})
	b2.LearnAt(macA, 0, 0)
	if _, ok := b2.LookupAt(macA, 1<<60); !ok || b2.Aged != 0 {
		t.Error("MaxAge=0 bridge expired an entry")
	}
}

// TestBridgeFDBKeysAreDistinct: the packed FDB key is one-to-one, so MACs
// that differ in any single byte — the ones a lossy packing would merge —
// learn, refresh, age and flood as independent entries.
func TestBridgeFDBKeysAreDistinct(t *testing.T) {
	var macs []packet.MAC
	seen := map[uint64]packet.MAC{}
	for pos := 0; pos < 6; pos++ {
		for v := 1; v < 256; v++ {
			var m packet.MAC
			m[pos] = byte(v)
			macs = append(macs, m)
		}
	}
	macs = append(macs, packet.MAC{}, packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	for _, m := range macs {
		k := macKey(m)
		if prev, dup := seen[k]; dup {
			t.Fatalf("%v and %v share FDB key %#x", prev, m, k)
		}
		seen[k] = m
	}

	b := NewBridge()
	b.MaxAge = 1000
	got := make([]int, 3)
	for i := range got {
		b.AttachPort(func(*skb.SKB) { got[i]++ })
	}
	for i, m := range macs {
		b.LearnAt(m, i%3, 0)
	}
	if b.Learned != uint64(len(macs)) {
		t.Fatalf("Learned = %d, want %d", b.Learned, len(macs))
	}
	for i, m := range macs {
		if p, ok := b.Lookup(m); !ok || p != i%3 {
			t.Fatalf("%v: Lookup = %d, %v, want port %d", m, p, ok, i%3)
		}
	}
	// Refresh every even entry at t=600; nothing is newly learned.
	for i := 0; i < len(macs); i += 2 {
		b.LearnAt(macs[i], i%3, 600)
	}
	if b.Learned != uint64(len(macs)) {
		t.Fatalf("refresh counted as learning: Learned = %d", b.Learned)
	}
	// At t=1500 only the odd entries are past MaxAge: forwarding toward
	// them floods and ages them out, toward the refreshed ones it unicasts.
	src := packet.MAC{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}
	var aged, flooded, forwarded uint64
	for i, m := range macs {
		in := (i%3 + 1) % 3
		b.ForwardAt(in, src, m, &skb.SKB{}, 1500)
		if i%2 == 1 {
			aged++
			flooded++
		} else {
			forwarded++
		}
		if b.Aged != aged || b.Flooded != flooded || b.Forwarded != forwarded {
			t.Fatalf("%v: aged/flooded/forwarded = %d/%d/%d, want %d/%d/%d",
				m, b.Aged, b.Flooded, b.Forwarded, aged, flooded, forwarded)
		}
		if _, ok := b.Lookup(m); ok != (i%2 == 0) {
			t.Fatalf("%v: present after forwarding = %v, want %v", m, ok, i%2 == 0)
		}
	}
}

// BenchmarkBridgeForward is the per-frame FDB work on the fabric path:
// learn the source, look up the destination, unicast.
func BenchmarkBridgeForward(b *testing.B) {
	br := NewBridge()
	br.MaxAge = 1 << 40
	br.AttachPort(func(*skb.SKB) {})
	br.AttachPort(func(*skb.SKB) {})
	src := packet.MAC{0x02, 0, 0, 0, 1, 7}
	dst := packet.MAC{0x02, 0, 0, 0, 2, 7}
	br.LearnAt(dst, 1, 0)
	s := &skb.SKB{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.ForwardAt(0, src, dst, s, 0)
	}
}
