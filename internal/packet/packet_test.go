package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 0xaa}
	macB = MAC{0x02, 0, 0, 0, 0, 0xbb}
	ipA  = Addr4(10, 0, 0, 1)
	ipB  = Addr4(10, 0, 0, 2)
)

func TestEthernetRoundtrip(t *testing.T) {
	e := Ethernet{Dst: macB, Src: macA, EtherType: EtherTypeIPv4}
	buf := e.Marshal(nil)
	if len(buf) != EthernetHeaderLen {
		t.Fatalf("header len %d, want %d", len(buf), EthernetHeaderLen)
	}
	got, rest, err := ParseEthernet(append(buf, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("roundtrip mismatch: %+v vs %+v", got, e)
	}
	if !bytes.Equal(rest, []byte{1, 2, 3}) {
		t.Errorf("payload %v, want [1 2 3]", rest)
	}
}

func TestEthernetTruncated(t *testing.T) {
	if _, _, err := ParseEthernet(make([]byte, 13)); err != ErrTruncated {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func TestIPv4Roundtrip(t *testing.T) {
	h := IPv4{
		TotalLen: IPv4HeaderLen + 4,
		ID:       0x1234,
		Flags:    FlagDF,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      ipA,
		Dst:      ipB,
	}
	buf := h.Marshal(nil)
	buf = append(buf, 0xde, 0xad, 0xbe, 0xef)
	got, payload, err := ParseIPv4(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, h)
	}
	if !bytes.Equal(payload, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Errorf("payload %x", payload)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4{TotalLen: IPv4HeaderLen, TTL: 64, Protocol: ProtoTCP, Src: ipA, Dst: ipB}
	buf := h.Marshal(nil)
	buf[8] ^= 0xff // corrupt TTL
	if _, _, err := ParseIPv4(buf); err != ErrBadChecksum {
		t.Errorf("got %v, want ErrBadChecksum", err)
	}
}

func TestIPv4BadVersion(t *testing.T) {
	h := IPv4{TotalLen: IPv4HeaderLen, TTL: 1, Src: ipA, Dst: ipB}
	buf := h.Marshal(nil)
	buf[0] = 0x65 // version 6
	if _, _, err := ParseIPv4(buf); err != ErrBadVersion {
		t.Errorf("got %v, want ErrBadVersion", err)
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// RFC 1071 example bytes: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, ck 0x220d
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if ck := Checksum(b); ck != 0x220d {
		t.Errorf("checksum %04x, want 220d", ck)
	}
	// Odd length handled.
	if Checksum([]byte{0xff}) != ^uint16(0xff00) {
		t.Error("odd-length checksum wrong")
	}
}

func TestUDPRoundtrip(t *testing.T) {
	u := UDP{SrcPort: 5000, DstPort: VXLANPort, Length: UDPHeaderLen + 2, Checksum: 0}
	buf := u.Marshal(nil)
	buf = append(buf, 7, 8, 99) // 99 beyond Length — must be excluded
	got, payload, err := ParseUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Errorf("roundtrip mismatch: %+v vs %+v", got, u)
	}
	if !bytes.Equal(payload, []byte{7, 8}) {
		t.Errorf("payload %v, want [7 8]", payload)
	}
}

func TestTCPRoundtrip(t *testing.T) {
	h := TCP{SrcPort: 443, DstPort: 33000, Seq: 1 << 30, Ack: 77, Flags: TCPAck | 0x08 /* PSH */, Window: 4096}
	buf := h.Marshal(nil)
	if len(buf) != TCPHeaderLen {
		t.Fatalf("header len %d, want %d", len(buf), TCPHeaderLen)
	}
	got, payload, err := ParseTCP(append(buf, 0xab))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip mismatch: %+v vs %+v", got, h)
	}
	if len(payload) != 1 || payload[0] != 0xab {
		t.Errorf("payload %v", payload)
	}
}

func TestVXLANRoundtrip(t *testing.T) {
	v := VXLAN{VNI: 0xabcdef}
	buf := v.Marshal(nil)
	got, inner, err := ParseVXLAN(append(buf, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.VNI != 0xabcdef {
		t.Errorf("VNI %06x, want abcdef", got.VNI)
	}
	if len(inner) != 1 {
		t.Errorf("inner %v", inner)
	}
}

func TestVXLANInvalidFlag(t *testing.T) {
	if _, _, err := ParseVXLAN(make([]byte, 8)); err != ErrNotVXLAN {
		t.Errorf("got %v, want ErrNotVXLAN", err)
	}
}

func TestEncapDecapVXLAN(t *testing.T) {
	src := FlowAddr{MAC: macA, IP: Addr4(172, 17, 0, 2), Port: 7777}
	dst := FlowAddr{MAC: macB, IP: Addr4(172, 17, 0, 3), Port: 8888}
	payload := []byte("hello overlay")
	inner := BuildUDPFrame(src, dst, 42, payload)

	frame := EncapVXLAN(macA, macB, ipA, ipB, 100, 7, inner)
	if len(frame) != len(inner)+OverlayOverhead {
		t.Errorf("frame len %d, want %d", len(frame), len(inner)+OverlayOverhead)
	}
	vni, gotInner, err := DecapVXLAN(frame)
	if err != nil {
		t.Fatal(err)
	}
	if vni != 100 {
		t.Errorf("vni %d, want 100", vni)
	}
	if !bytes.Equal(gotInner, inner) {
		t.Error("inner frame corrupted by encap/decap")
	}
	// And the inner parses down to the original payload.
	_, ih, _, uh, p, err := ParseInner(gotInner)
	if err != nil {
		t.Fatal(err)
	}
	if ih.Src != src.IP || ih.Dst != dst.IP || uh.DstPort != 8888 {
		t.Error("inner headers wrong after decap")
	}
	if !bytes.Equal(p, payload) {
		t.Errorf("payload %q, want %q", p, payload)
	}
}

func TestDecapRejectsNonVXLAN(t *testing.T) {
	src := FlowAddr{MAC: macA, IP: ipA, Port: 1}
	dst := FlowAddr{MAC: macB, IP: ipB, Port: 2}
	frame := BuildUDPFrame(src, dst, 0, []byte("plain")) // dst port 2 != 4789
	if _, _, err := DecapVXLAN(frame); err != ErrNotVXLAN {
		t.Errorf("got %v, want ErrNotVXLAN", err)
	}
	tcpFrame := BuildTCPFrame(src, dst, 0, 1, 0, TCPAck, nil)
	if _, _, err := DecapVXLAN(tcpFrame); err != ErrNotVXLAN {
		t.Errorf("tcp frame: got %v, want ErrNotVXLAN", err)
	}
}

func TestBuildTCPFrameParses(t *testing.T) {
	src := FlowAddr{MAC: macA, IP: ipA, Port: 50000}
	dst := FlowAddr{MAC: macB, IP: ipB, Port: 80}
	frame := BuildTCPFrame(src, dst, 9, 1000, 555, TCPAck, []byte("GET /"))
	_, ih, th, _, p, err := ParseInner(frame)
	if err != nil {
		t.Fatal(err)
	}
	if ih.Protocol != ProtoTCP || th.Seq != 1000 || th.Ack != 555 {
		t.Errorf("headers wrong: %+v %+v", ih, th)
	}
	if string(p) != "GET /" {
		t.Errorf("payload %q", p)
	}
}

func TestSourcePortEntropy(t *testing.T) {
	src := FlowAddr{MAC: macA, IP: ipA, Port: 1000}
	dst := FlowAddr{MAC: macB, IP: ipB, Port: 2000}
	f1 := BuildUDPFrame(src, dst, 0, []byte("x"))
	src2 := src
	src2.Port = 1001
	f2 := BuildUDPFrame(src2, dst, 0, []byte("x"))
	p1, p2 := SourcePortFor(f1), SourcePortFor(f2)
	if p1 < 49152 || p2 < 49152 {
		t.Errorf("source ports %d/%d below dynamic range", p1, p2)
	}
	if p1 == p2 {
		t.Error("different flows should (almost surely) hash to different ports")
	}
	if SourcePortFor(f1) != p1 {
		t.Error("source port must be deterministic per flow")
	}
}

// Property: encap/decap round-trips arbitrary payloads of any size.
func TestEncapDecapProperty(t *testing.T) {
	src := FlowAddr{MAC: macA, IP: ipA, Port: 1234}
	dst := FlowAddr{MAC: macB, IP: ipB, Port: 4321}
	f := func(payload []byte, vni uint32, id uint16) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		vni &= 0xffffff
		inner := BuildUDPFrame(src, dst, id, payload)
		frame := EncapVXLAN(macA, macB, ipA, ipB, vni, id, inner)
		gotVNI, gotInner, err := DecapVXLAN(frame)
		return err == nil && gotVNI == vni && bytes.Equal(gotInner, inner)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: IPv4 marshal/parse round-trips arbitrary header fields.
func TestIPv4RoundtripProperty(t *testing.T) {
	f := func(tos, ttl, proto byte, id uint16, src, dst uint32, payloadLen uint16) bool {
		pl := int(payloadLen % 512)
		h := IPv4{
			TOS: tos, TotalLen: uint16(IPv4HeaderLen + pl), ID: id,
			TTL: ttl, Protocol: proto,
			Src: IPv4Addr(src), Dst: IPv4Addr(dst),
		}
		buf := h.Marshal(nil)
		buf = append(buf, make([]byte, pl)...)
		got, payload, err := ParseIPv4(buf)
		return err == nil && got == h && len(payload) == pl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrFormatting(t *testing.T) {
	if s := Addr4(192, 168, 1, 20).String(); s != "192.168.1.20" {
		t.Errorf("IP string %q", s)
	}
	if s := macA.String(); s != "02:00:00:00:00:aa" {
		t.Errorf("MAC string %q", s)
	}
}
