package overlay

import (
	"fmt"

	"mflow/internal/packet"
	"mflow/internal/skb"
	"mflow/internal/traffic"
)

// wireBuilder materializes real wire bytes for every segment a sender
// emits: an inner Ethernet/IPv4/TCP-or-UDP frame, which the flow's VTEP
// then wraps in a genuine RFC 7348 VxLAN encapsulation on overlay paths.
// The VxLAN device performs byte-level decapsulation and the socket
// checks that the delivered frames parse and carry the accounted payload
// length — end-to-end validation that the simulated data path manipulates
// packets correctly, not just their cost accounting.
type wireBuilder struct {
	n        traffic.Ingress
	src, dst packet.FlowAddr
	ipID     uint16
}

func newWireBuilder(n traffic.Ingress, flowID uint64) *wireBuilder {
	b := byte(flowID)
	return &wireBuilder{
		n: n,
		src: packet.FlowAddr{
			MAC: packet.MAC{0x02, 0, 0, 0, 1, b}, IP: packet.Addr4(172, 17, 1, b), Port: 40000 + uint16(flowID),
		},
		dst: packet.FlowAddr{
			MAC: packet.MAC{0x02, 0, 0, 0, 2, b}, IP: packet.Addr4(172, 17, 2, b), Port: 5001,
		},
	}
}

// Deliver implements traffic.Ingress: it attaches the inner frame's bytes
// and forwards it toward the NIC.
//
// The frame is built inside out over the skb's pooled arena, kernel
// style: Reserve positions an empty window behind headroom sized for
// every header the frame will ever need, the payload is written directly
// into the arena, and each header layer is a Push into headroom plus an
// in-place marshal — zero allocations and zero payload copies once the
// pool is warm.
func (w *wireBuilder) Deliver(s *skb.SKB) bool {
	innerHdr := packet.InnerUDPHeaderLen
	if s.Proto == skb.TCP {
		innerHdr = packet.InnerTCPHeaderLen
	}
	// Always reserve room for the outer headers too: a downstream VTEP
	// may push them, and headroom is cheaper than a grow-and-copy per
	// frame.
	s.Reserve(packet.OverlayOverhead+innerHdr, s.PayloadLen)
	traffic.FillPattern(s.Put(s.PayloadLen), s.Seq)
	w.ipID++
	hdr := s.Push(innerHdr)
	if s.Proto == skb.TCP {
		packet.BuildTCPFrameInPlace(hdr, w.src, w.dst, w.ipID,
			uint32(s.Seq*traffic.MSS), 0, packet.TCPAck, s.PayloadLen)
	} else {
		packet.BuildUDPFrameInPlace(hdr, w.src, w.dst, w.ipID, s.PayloadLen)
	}
	return w.n.Deliver(s)
}

// wireVerify is the socket-side integrity check for wire-mode runs:
// the delivered skb must be decapsulated and its frames' transport payloads
// must cover exactly the bytes the accounting says were delivered. This is
// the stream's single terminal reader: it walks the head window and each
// chained GRO frag part-wise, so even here the super-packet is never
// materialized into one contiguous buffer.
func wireVerify(s *skb.SKB) error {
	if s.Encap {
		return fmt.Errorf("wire: skb reached the socket still encapsulated: %v", s)
	}
	if s.Data == nil {
		return fmt.Errorf("wire: skb lost its data: %v", s)
	}
	got := 0
	for i, n := 0, s.Parts(); i < n; i++ {
		pb, err := packet.PayloadBytes(s.Part(i))
		if err != nil {
			return fmt.Errorf("wire: corrupt frame at socket (part %d/%d): %w", i, n, err)
		}
		got += pb
	}
	if got != s.PayloadLen {
		return fmt.Errorf("wire: payload %d bytes, accounting says %d", got, s.PayloadLen)
	}
	return nil
}
