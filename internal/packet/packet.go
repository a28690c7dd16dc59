// Package packet implements the wire formats the container overlay network
// manipulates: Ethernet, IPv4 (with header checksums), UDP, TCP and VxLAN
// (RFC 7348). The overlay data path in this repository performs real
// encapsulation and decapsulation on these byte layouts — the simulator's
// cost model decides how long operations take, but correctness (headers,
// checksums, round-trips) is enforced on actual bytes so it can be tested.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Header and address sizes in bytes.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20
	UDPHeaderLen      = 8
	TCPHeaderLen      = 20
	VXLANHeaderLen    = 8

	// VXLANPort is the IANA-assigned UDP destination port for VxLAN.
	VXLANPort = 4789

	// OverlayOverhead is the extra bytes VxLAN encapsulation adds to every
	// frame: outer Ethernet + outer IPv4 + outer UDP + VxLAN header.
	OverlayOverhead = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen + VXLANHeaderLen
)

// EtherType values used by the overlay.
const (
	EtherTypeIPv4 = 0x0800
)

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Errors returned by parsers.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrNotVXLAN    = errors.New("packet: not a VxLAN frame")
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the conventional colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is a 32-bit IPv4 address.
type IPv4Addr uint32

// Addr4 builds an IPv4Addr from dotted-quad components.
func Addr4(a, b, c, d byte) IPv4Addr {
	return IPv4Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address as a dotted quad.
func (ip IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Ethernet is a parsed Ethernet header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// Marshal appends the header to buf and returns the extended slice.
func (e *Ethernet) Marshal(buf []byte) []byte {
	buf = append(buf, e.Dst[:]...)
	buf = append(buf, e.Src[:]...)
	return binary.BigEndian.AppendUint16(buf, e.EtherType)
}

// ParseEthernet decodes an Ethernet header and returns it with the payload.
func ParseEthernet(b []byte) (Ethernet, []byte, error) {
	if len(b) < EthernetHeaderLen {
		return Ethernet{}, nil, ErrTruncated
	}
	var e Ethernet
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return e, b[14:], nil
}
