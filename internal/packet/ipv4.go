package packet

import "encoding/binary"

// IPv4 is a parsed IPv4 header (options are not used by the overlay).
type IPv4 struct {
	TOS      byte
	TotalLen uint16
	ID       uint16
	Flags    byte   // 3 bits: reserved, DF, MF
	FragOff  uint16 // 13 bits, in 8-byte units
	TTL      byte
	Protocol byte
	Src      IPv4Addr
	Dst      IPv4Addr
}

// FlagDF is the IPv4 don't-fragment flag bit.
const FlagDF = 0x2

// Checksum computes the Internet checksum (RFC 1071) over b, which must be
// the region to cover with its checksum field zeroed (or included, in which
// case a valid region sums to zero).
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Marshal appends the 20-byte header (with a freshly computed checksum) to
// buf and returns the extended slice. TotalLen must already be set.
func (h *IPv4) Marshal(buf []byte) []byte {
	start := len(buf)
	buf = append(buf,
		0x45, // version 4, IHL 5
		h.TOS,
	)
	buf = binary.BigEndian.AppendUint16(buf, h.TotalLen)
	buf = binary.BigEndian.AppendUint16(buf, h.ID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.Flags)<<13|h.FragOff&0x1fff)
	buf = append(buf, h.TTL, h.Protocol, 0, 0) // checksum placeholder
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.Src))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.Dst))
	ck := Checksum(buf[start : start+IPv4HeaderLen])
	binary.BigEndian.PutUint16(buf[start+10:start+12], ck)
	return buf
}

// ParseIPv4 decodes and validates an IPv4 header, returning it along with
// the payload (bounded by TotalLen).
func ParseIPv4(b []byte) (IPv4, []byte, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4{}, nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return IPv4{}, nil, ErrBadVersion
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return IPv4{}, nil, ErrTruncated
	}
	if Checksum(b[:ihl]) != 0 {
		return IPv4{}, nil, ErrBadChecksum
	}
	var h IPv4
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = byte(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Src = IPv4Addr(binary.BigEndian.Uint32(b[12:16]))
	h.Dst = IPv4Addr(binary.BigEndian.Uint32(b[16:20]))
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(b) {
		return IPv4{}, nil, ErrTruncated
	}
	return h, b[ihl:h.TotalLen], nil
}
