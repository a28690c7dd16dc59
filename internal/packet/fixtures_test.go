package packet

// Frame builders for tests: each allocates a whole frame and fills it with
// the in-place builders the wire path uses.

// BuildUDPFrame assembles a complete inner Ethernet/IPv4/UDP frame carrying
// payload from src to dst.
func BuildUDPFrame(src, dst FlowAddr, ipID uint16, payload []byte) []byte {
	buf := make([]byte, InnerUDPHeaderLen+len(payload))
	copy(buf[InnerUDPHeaderLen:], payload)
	BuildUDPFrameInPlace(buf[:InnerUDPHeaderLen], src, dst, ipID, len(payload))
	return buf
}

// BuildTCPFrame assembles a complete inner Ethernet/IPv4/TCP frame carrying
// payload from src to dst with the given sequence number.
func BuildTCPFrame(src, dst FlowAddr, ipID uint16, seq, ack uint32, flags byte, payload []byte) []byte {
	buf := make([]byte, InnerTCPHeaderLen+len(payload))
	copy(buf[InnerTCPHeaderLen:], payload)
	BuildTCPFrameInPlace(buf[:InnerTCPHeaderLen], src, dst, ipID, seq, ack, flags, len(payload))
	return buf
}

// EncapVXLAN wraps an inner Ethernet frame in outer Ethernet/IPv4/UDP/VxLAN
// headers in a new buffer.
func EncapVXLAN(outerSrcMAC, outerDstMAC MAC, outerSrc, outerDst IPv4Addr, vni uint32, ipID uint16, inner []byte) []byte {
	buf := make([]byte, OverlayOverhead+len(inner))
	copy(buf[OverlayOverhead:], inner)
	EncapVXLANInPlace(buf[:OverlayOverhead], outerSrcMAC, outerDstMAC, outerSrc, outerDst, vni, ipID, buf[OverlayOverhead:])
	return buf
}
