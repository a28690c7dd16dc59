package packet

import "encoding/binary"

// UDP is a parsed UDP header. The checksum is computed over the pseudo
// header as required by RFC 768 (a zero transmitted checksum means "none",
// which VxLAN commonly uses for the outer UDP header).
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// Marshal appends the header to buf. Length must already include the
// payload; Checksum is written as provided (0 = disabled).
func (u *UDP) Marshal(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, u.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, u.DstPort)
	buf = binary.BigEndian.AppendUint16(buf, u.Length)
	return binary.BigEndian.AppendUint16(buf, u.Checksum)
}

// ParseUDP decodes a UDP header and returns the payload bounded by Length.
func ParseUDP(b []byte) (UDP, []byte, error) {
	if len(b) < UDPHeaderLen {
		return UDP{}, nil, ErrTruncated
	}
	u := UDP{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Length:   binary.BigEndian.Uint16(b[4:6]),
		Checksum: binary.BigEndian.Uint16(b[6:8]),
	}
	if int(u.Length) < UDPHeaderLen || int(u.Length) > len(b) {
		return UDP{}, nil, ErrTruncated
	}
	return u, b[UDPHeaderLen:u.Length], nil
}

// TCP is a parsed TCP header (no options).
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   byte // FIN/SYN/RST/PSH/ACK/URG bits
	Window  uint16
}

// TCPAck is the TCP ACK flag bit.
const TCPAck = 0x10

// Marshal appends the 20-byte header to buf.
func (t *TCP) Marshal(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, t.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, t.DstPort)
	buf = binary.BigEndian.AppendUint32(buf, t.Seq)
	buf = binary.BigEndian.AppendUint32(buf, t.Ack)
	buf = append(buf, 5<<4, t.Flags) // data offset 5 words
	buf = binary.BigEndian.AppendUint16(buf, t.Window)
	return append(buf, 0, 0, 0, 0) // checksum+urgent (checksum offloaded)
}

// ParseTCP decodes a TCP header and returns the payload.
func ParseTCP(b []byte) (TCP, []byte, error) {
	if len(b) < TCPHeaderLen {
		return TCP{}, nil, ErrTruncated
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || len(b) < off {
		return TCP{}, nil, ErrTruncated
	}
	t := TCP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:16]),
	}
	return t, b[off:], nil
}
