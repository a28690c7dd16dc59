package packet

import "encoding/binary"

// VXLAN is the 8-byte VxLAN header (RFC 7348): one valid-VNI flag bit and a
// 24-bit VxLAN Network Identifier.
type VXLAN struct {
	VNI uint32 // 24 bits
}

const vxlanFlagValidVNI = 0x08

// Marshal appends the header to buf.
func (v *VXLAN) Marshal(buf []byte) []byte {
	buf = append(buf, vxlanFlagValidVNI, 0, 0, 0)
	return binary.BigEndian.AppendUint32(buf, v.VNI<<8)
}

// ParseVXLAN decodes a VxLAN header and returns the inner frame.
func ParseVXLAN(b []byte) (VXLAN, []byte, error) {
	if len(b) < VXLANHeaderLen {
		return VXLAN{}, nil, ErrTruncated
	}
	if b[0]&vxlanFlagValidVNI == 0 {
		return VXLAN{}, nil, ErrNotVXLAN
	}
	return VXLAN{VNI: binary.BigEndian.Uint32(b[4:8]) >> 8}, b[8:], nil
}

// EncapVXLANInPlace writes the outer Ethernet/IPv4/UDP/VxLAN headers for
// inner into hdr, exactly as the kernel's vxlan device does on transmit.
// The outer UDP source port is derived from a hash of the inner frame (flow
// entropy for RSS/ECMP, per RFC 7348 §5); the outer UDP checksum is zero as
// is conventional for VxLAN over IPv4. hdr must be exactly OverlayOverhead
// bytes; on the zero-copy path it is the headroom
// an skb.Push(OverlayOverhead) just exposed immediately in front of inner,
// so encapsulation is pure offset arithmetic plus a 50-byte header write,
// with no allocation and no payload copy (the kernel's skb_push shape).
func EncapVXLANInPlace(hdr []byte, outerSrcMAC, outerDstMAC MAC, outerSrc, outerDst IPv4Addr, vni uint32, ipID uint16, inner []byte) {
	if len(hdr) != OverlayOverhead {
		panic("packet: EncapVXLANInPlace hdr must be OverlayOverhead bytes")
	}
	buf := hdr[:0:len(hdr)]
	eth := Ethernet{Dst: outerDstMAC, Src: outerSrcMAC, EtherType: EtherTypeIPv4}
	buf = eth.Marshal(buf)
	ip := IPv4{
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + VXLANHeaderLen + len(inner)),
		ID:       ipID,
		Flags:    FlagDF,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      outerSrc,
		Dst:      outerDst,
	}
	buf = ip.Marshal(buf)
	udp := UDP{
		SrcPort: SourcePortFor(inner),
		DstPort: VXLANPort,
		Length:  uint16(UDPHeaderLen + VXLANHeaderLen + len(inner)),
	}
	buf = udp.Marshal(buf)
	vx := VXLAN{VNI: vni}
	if buf = vx.Marshal(buf); len(buf) != OverlayOverhead {
		panic("packet: outer header marshal did not fill the prefix exactly")
	}
}

// DecapVXLAN validates and strips the outer Ethernet/IPv4/UDP/VxLAN headers
// of frame, returning the VNI and the inner Ethernet frame. It is the
// receive-side counterpart of EncapVXLANInPlace.
func DecapVXLAN(frame []byte) (vni uint32, inner []byte, err error) {
	_, p, err := ParseEthernet(frame)
	if err != nil {
		return 0, nil, err
	}
	ih, p, err := ParseIPv4(p)
	if err != nil {
		return 0, nil, err
	}
	if ih.Protocol != ProtoUDP {
		return 0, nil, ErrNotVXLAN
	}
	uh, p, err := ParseUDP(p)
	if err != nil {
		return 0, nil, err
	}
	if uh.DstPort != VXLANPort {
		return 0, nil, ErrNotVXLAN
	}
	vh, p, err := ParseVXLAN(p)
	if err != nil {
		return 0, nil, err
	}
	return vh.VNI, p, nil
}

// SourcePortFor hashes an inner frame's first bytes into the dynamic port
// range, providing the per-flow entropy the outer header carries.
func SourcePortFor(inner []byte) uint16 {
	var h uint32 = 2166136261
	n := len(inner)
	if n > 38 { // inner eth + ip headers + L4 ports carry the flow identity
		n = 38
	}
	for _, b := range inner[:n] {
		h = (h ^ uint32(b)) * 16777619
	}
	return uint16(49152 + h%16384)
}
