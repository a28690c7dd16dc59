package packet

// FlowAddr identifies one end of a transport flow.
type FlowAddr struct {
	MAC  MAC
	IP   IPv4Addr
	Port uint16
}

// Inner frame header totals: the fixed prefix BuildUDPFrameInPlace /
// BuildTCPFrameInPlace write in front of the payload.
const (
	InnerUDPHeaderLen = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen
	InnerTCPHeaderLen = EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen
)

// BuildUDPFrameInPlace writes the inner Ethernet/IPv4/UDP headers for a
// payload of payloadLen bytes into hdr (exactly InnerUDPHeaderLen bytes).
// On the zero-copy path hdr is skb headroom immediately preceding a
// payload already built in place, so no byte of payload moves.
func BuildUDPFrameInPlace(hdr []byte, src, dst FlowAddr, ipID uint16, payloadLen int) {
	if len(hdr) != InnerUDPHeaderLen {
		panic("packet: BuildUDPFrameInPlace hdr must be InnerUDPHeaderLen bytes")
	}
	buf := hdr[:0:len(hdr)]
	eth := Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: EtherTypeIPv4}
	buf = eth.Marshal(buf)
	ip := IPv4{
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + payloadLen),
		ID:       ipID,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      src.IP,
		Dst:      dst.IP,
	}
	buf = ip.Marshal(buf)
	udp := UDP{SrcPort: src.Port, DstPort: dst.Port, Length: uint16(UDPHeaderLen + payloadLen)}
	if buf = udp.Marshal(buf); len(buf) != InnerUDPHeaderLen {
		panic("packet: inner UDP header marshal did not fill the prefix exactly")
	}
}

// BuildTCPFrameInPlace writes the inner Ethernet/IPv4/TCP headers for a
// payload of payloadLen bytes into hdr (exactly InnerTCPHeaderLen bytes).
func BuildTCPFrameInPlace(hdr []byte, src, dst FlowAddr, ipID uint16, seq, ack uint32, flags byte, payloadLen int) {
	if len(hdr) != InnerTCPHeaderLen {
		panic("packet: BuildTCPFrameInPlace hdr must be InnerTCPHeaderLen bytes")
	}
	buf := hdr[:0:len(hdr)]
	eth := Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: EtherTypeIPv4}
	buf = eth.Marshal(buf)
	ip := IPv4{
		TotalLen: uint16(IPv4HeaderLen + TCPHeaderLen + payloadLen),
		ID:       ipID,
		Flags:    FlagDF,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      src.IP,
		Dst:      dst.IP,
	}
	buf = ip.Marshal(buf)
	tcp := TCP{SrcPort: src.Port, DstPort: dst.Port, Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	if buf = tcp.Marshal(buf); len(buf) != InnerTCPHeaderLen {
		panic("packet: inner TCP header marshal did not fill the prefix exactly")
	}
}

// ParseInner decodes an inner Ethernet frame down to its transport payload,
// returning the headers encountered. tcp is meaningful only when
// ip.Protocol == ProtoTCP, udp only for ProtoUDP.
func ParseInner(frame []byte) (eth Ethernet, ip IPv4, tcp TCP, udp UDP, payload []byte, err error) {
	eth, p, err := ParseEthernet(frame)
	if err != nil {
		return
	}
	ip, p, err = ParseIPv4(p)
	if err != nil {
		return
	}
	switch ip.Protocol {
	case ProtoTCP:
		tcp, payload, err = ParseTCP(p)
	case ProtoUDP:
		udp, payload, err = ParseUDP(p)
	default:
		payload = p
	}
	return
}
