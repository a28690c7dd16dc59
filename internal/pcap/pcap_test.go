package pcap

import (
	"bytes"
	"testing"
	"testing/quick"

	"mflow/internal/packet"
	"mflow/internal/sim"
)

// udpFrame builds a complete inner Ethernet/IPv4/UDP frame carrying payload.
func udpFrame(src, dst packet.FlowAddr, ipID uint16, payload []byte) []byte {
	buf := make([]byte, packet.InnerUDPHeaderLen+len(payload))
	copy(buf[packet.InnerUDPHeaderLen:], payload)
	packet.BuildUDPFrameInPlace(buf[:packet.InnerUDPHeaderLen], src, dst, ipID, len(payload))
	return buf
}

func TestRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	src := packet.FlowAddr{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.Addr4(10, 0, 0, 1), Port: 1}
	dst := packet.FlowAddr{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.Addr4(10, 0, 0, 2), Port: 2}
	f1 := udpFrame(src, dst, 1, []byte("hello"))
	f2 := udpFrame(src, dst, 2, []byte("world!!"))

	if err := w.WritePacket(sim.Time(1_500_000), f1); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(sim.Time(2*sim.Second+3000), f2); err != nil {
		t.Fatal(err)
	}
	if w.Packets != 2 {
		t.Errorf("Packets=%d", w.Packets)
	}

	pkts, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("read %d packets", len(pkts))
	}
	if !bytes.Equal(pkts[0].Data, f1) || !bytes.Equal(pkts[1].Data, f2) {
		t.Error("frame bytes corrupted")
	}
	// Timestamps survive at microsecond resolution.
	if pkts[0].At != sim.Time(1_500_000) {
		t.Errorf("t0=%v", pkts[0].At)
	}
	if pkts[1].At != sim.Time(2*sim.Second+3000) {
		t.Errorf("t1=%v, want 2s+3µs", pkts[1].At)
	}
	if pkts[1].OrigLen != len(f2) {
		t.Errorf("origLen=%d", pkts[1].OrigLen)
	}
}

func TestSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.snap = 10
	frame := make([]byte, 100)
	if err := w.WritePacket(0, frame); err != nil {
		t.Fatal(err)
	}
	pkts, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts[0].Data) != 10 || pkts[0].OrigLen != 100 {
		t.Errorf("snap failed: cap=%d orig=%d", len(pkts[0].Data), pkts[0].OrigLen)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Errorf("got %v, want ErrBadMagic", err)
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

func TestHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	h := buf.Bytes()
	if h[0] != 0xd4 || h[1] != 0xc3 || h[2] != 0xb2 || h[3] != 0xa1 {
		t.Error("magic not little-endian classic pcap")
	}
	if h[20] != 1 {
		t.Error("link type not Ethernet")
	}
}

// Property: any sequence of frames round-trips with preserved bytes/order.
func TestRoundtripProperty(t *testing.T) {
	f := func(frames [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i, fr := range frames {
			if err := w.WritePacket(sim.Time(i)*1000, fr); err != nil {
				return false
			}
		}
		if len(frames) == 0 {
			return true // nothing written, nothing to read
		}
		pkts, err := Read(&buf)
		if err != nil || len(pkts) != len(frames) {
			return false
		}
		for i := range frames {
			if !bytes.Equal(pkts[i].Data, frames[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
