package netdev

import (
	"encoding/binary"

	"mflow/internal/packet"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// fdbEntry is one learned MAC→port binding with its last refresh time.
type fdbEntry struct {
	port int
	seen sim.Time
}

// Bridge is a learning Ethernet bridge (the docker0-style virtual switch
// that connects the VxLAN device to the containers' veth endpoints). It
// learns source MACs per port and forwards by destination MAC, flooding
// unknown destinations to every other port. With MaxAge set, entries not
// refreshed within MaxAge expire (the kernel's bridge ageing timer) and the
// next frame toward them floods again.
type Bridge struct {
	ports []func(*skb.SKB)
	fdb   map[uint64]fdbEntry // keyed by macKey

	// MaxAge is the FDB ageing horizon; zero disables ageing (entries are
	// permanent, the pre-fabric behaviour).
	MaxAge sim.Duration

	// Forwarded counts unicast deliveries; Flooded counts frames sent to
	// all ports for an unknown destination. Learned counts new FDB
	// insertions (refreshes excluded); Aged counts entries expired by
	// MaxAge.
	Forwarded uint64
	Flooded   uint64
	Learned   uint64
	Aged      uint64
}

// NewBridge returns an empty bridge.
func NewBridge() *Bridge {
	return &Bridge{fdb: make(map[uint64]fdbEntry)}
}

// macKey packs a MAC into a uint64 one-to-one, so FDB lookups take the
// runtime's fast 64-bit map path instead of hashing a 6-byte array.
func macKey(m packet.MAC) uint64 {
	return uint64(binary.BigEndian.Uint16(m[:2]))<<32 | uint64(binary.BigEndian.Uint32(m[2:]))
}

// AttachPort adds a port whose egress is deliver and returns its number.
func (b *Bridge) AttachPort(deliver func(*skb.SKB)) int {
	b.ports = append(b.ports, deliver)
	return len(b.ports) - 1
}

// LearnAt records (or refreshes) src→port at the given time.
func (b *Bridge) LearnAt(src packet.MAC, port int, now sim.Time) {
	k := macKey(src)
	if _, ok := b.fdb[k]; !ok {
		b.Learned++
	}
	b.fdb[k] = fdbEntry{port: port, seen: now}
}

// Lookup returns the port a MAC was learned on, ignoring ageing.
func (b *Bridge) Lookup(mac packet.MAC) (int, bool) {
	e, ok := b.fdb[macKey(mac)]
	return e.port, ok
}

// LookupAt returns the port a MAC was learned on, expiring the entry first
// if it aged out before now.
func (b *Bridge) LookupAt(mac packet.MAC, now sim.Time) (int, bool) {
	k := macKey(mac)
	e, ok := b.fdb[k]
	if !ok {
		return 0, false
	}
	if b.MaxAge > 0 && now.Sub(e.seen) > b.MaxAge {
		delete(b.fdb, k)
		b.Aged++
		return 0, false
	}
	return e.port, true
}

// Forward switches a frame arriving on inPort with the given addresses:
// learns src→inPort, then delivers to dst's learned port or floods.
// Ageing-oblivious (time zero); fabric paths use ForwardAt.
func (b *Bridge) Forward(inPort int, src, dst packet.MAC, s *skb.SKB) {
	b.ForwardAt(inPort, src, dst, s, 0)
}

// ForwardAt is Forward with an explicit clock so MaxAge can expire stale
// entries: an aged-out destination floods exactly like a never-learned one.
func (b *Bridge) ForwardAt(inPort int, src, dst packet.MAC, s *skb.SKB, now sim.Time) {
	b.LearnAt(src, inPort, now)
	if p, ok := b.LookupAt(dst, now); ok && p != inPort {
		b.Forwarded++
		b.ports[p](s)
		return
	}
	b.Flooded++
	for i, deliver := range b.ports {
		if i != inPort {
			deliver(s)
		}
	}
}
