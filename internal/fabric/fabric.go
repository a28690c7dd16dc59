// Package fabric models a multi-host underlay: N simulated hosts share one
// deterministic DES clock and exchange VxLAN-encapsulated frames over a
// leaf-switch wire model. Each host owns an uplink and a downlink serializer
// (bandwidth-limited, byte-bounded queue with tail drop) joined by a
// propagation delay, so a TX host's encap output is carried — serialized,
// delayed, possibly dropped — into the RX host's NIC ring, where the usual
// RPS/FALCON/MFLOW steering applies.
//
// The package holds the pure wire/FDB machinery; internal/overlay wires it
// into scenarios through Scenario.Fabric. A nil or zero Config builds
// nothing: single-host runs never touch this package.
package fabric

import (
	"fmt"

	"mflow/internal/netdev"
	"mflow/internal/packet"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Placement names for Config.Placement.
const (
	// PlacePair spreads flows ring-wise: flow f is received on host f%N
	// and sent from the next host — every host both sends and receives,
	// the scale-out regime.
	PlacePair = "pair"
	// PlaceIncast receives every flow on host 0 and spreads senders over
	// hosts 1..N-1 — the N→1 incast regime that saturates one receiver.
	PlaceIncast = "incast"
)

// Config describes the fabric. The zero value (and a nil pointer) disable
// it entirely: the scenario runs single-host, bit-for-bit identical to a
// build without this package.
type Config struct {
	// Hosts is the number of simulated hosts; >= 2 enables the fabric.
	Hosts int
	// Placement selects cross-host flow placement: PlacePair (default) or
	// PlaceIncast.
	Placement string
	// LinkGbps is each host's uplink/downlink serialization rate
	// (default 40). sim time is nanoseconds, so 1 Gbps == 1 bit/ns and
	// serialization math stays exact.
	LinkGbps float64
	// LinkLatency is the one-way propagation delay across the underlay
	// (default 5µs).
	LinkLatency sim.Duration
	// LinkQueueBytes bounds each link's standing queue; frames that would
	// push the backlog past it are tail-dropped (default 512 KiB).
	LinkQueueBytes int
	// FDBMaxAge ages VTEP FDB entries (zero, the default, never ages):
	// an expired destination floods again until relearned.
	FDBMaxAge sim.Duration
}

// Enabled reports whether the config actually builds a fabric.
func (c *Config) Enabled() bool { return c != nil && c.Hosts >= 2 }

// WithDefaults returns the config with unset knobs filled.
func (c Config) WithDefaults() Config {
	if c.Placement == "" {
		c.Placement = PlacePair
	}
	if c.LinkGbps <= 0 {
		c.LinkGbps = 40
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 5 * sim.Microsecond
	}
	if c.LinkQueueBytes <= 0 {
		c.LinkQueueBytes = 512 << 10
	}
	return c
}

// Place returns flow f's (tx, rx) host pair under the config's placement.
func (c Config) Place(f int) (tx, rx int) {
	n := c.Hosts
	if c.Placement == PlaceIncast {
		if n < 2 {
			return 0, 0
		}
		return 1 + f%(n-1), 0
	}
	rx = f % n
	return (rx + 1) % n, rx
}

// ContainerMAC derives the deterministic MAC of flow f's endpoint on a
// host: locally administered, host and flow encoded in the low bytes. rx
// selects the receiving container (true) or the sending client (false).
func ContainerMAC(flow uint64, host int, rx bool) packet.MAC {
	side := byte(0xc1) // client
	if rx {
		side = 0xc0 // container
	}
	return packet.MAC{0x02, side, byte(host), byte(flow >> 16), byte(flow >> 8), byte(flow)}
}

// Link is a fluid serializer with a byte-bounded tail-drop queue: one
// direction of one host's underlay attachment. The horizon is the time the
// serializer frees; backlog is (horizon-now)·rate, and a frame that would
// push it past QueueBytes is dropped before consuming any bandwidth.
type Link struct {
	Name       string
	Gbps       float64
	QueueBytes int

	horizon sim.Time

	// TxFrames/TxBytes count serialized frames (flood copies included);
	// Drops counts tail drops at this link's queue.
	TxFrames uint64
	TxBytes  uint64
	Drops    uint64
}

// Send serializes a frame of the given size starting no earlier than now,
// returning the departure time (serialization complete) and whether the
// queue accepted it.
func (l *Link) Send(now sim.Time, bytes int) (sim.Time, bool) {
	if l.horizon < now {
		l.horizon = now
	}
	// Backlog in bytes: queued time × rate. 1 Gbps is exactly 1 bit/ns.
	backlog := int(float64(l.horizon.Sub(now)) * l.Gbps / 8)
	if l.QueueBytes > 0 && backlog+bytes > l.QueueBytes {
		l.Drops++
		return 0, false
	}
	l.horizon = l.horizon.Add(sim.Duration(float64(bytes) * 8 / l.Gbps))
	l.TxFrames++
	l.TxBytes += uint64(bytes)
	return l.horizon, true
}

// Underlay connects N hosts through per-host uplink/downlink serializers
// and a propagation delay between them (host → switch → host). Frames are
// events on the shared scheduler; delivery lands in DeliverTo, which the
// overlay wiring points at the destination host's NIC chain.
type Underlay struct {
	sched *sim.Scheduler
	lat   sim.Duration
	up    []*Link
	down  []*Link

	// DeliverTo hands a frame that survived both serializers to the
	// destination host's receive edge (fault wrap → arrival sequencing →
	// NIC ring). Set by the overlay wiring before traffic starts.
	DeliverTo func(dst int, s *skb.SKB)
	// Drop retires a frame tail-dropped inside the underlay (returns it
	// to the run's SKB pool). Set by the overlay wiring.
	Drop func(s *skb.SKB)

	// Sent counts real frames offered to the wire toward their owner
	// (flood copies excluded); Delivered those handed to DeliverTo; Drops
	// tail drops of real frames at either serializer (copies dropped at a
	// full link are not counted — no data was lost). Conservation holds
	// at every instant: Sent == Delivered + Drops + InFlight().
	Sent      uint64
	Delivered uint64
	Drops     uint64
	// FloodCopies counts head-end-replication copies serialized for
	// non-owner peers while a destination was unlearned.
	FloodCopies uint64

	inFlight int
	free     []*transit
}

// NewUnderlay builds the wire model for n hosts from cfg (assumed
// defaulted) on the shared scheduler.
func NewUnderlay(n int, cfg Config, sched *sim.Scheduler) *Underlay {
	u := &Underlay{sched: sched, lat: cfg.LinkLatency}
	for i := 0; i < n; i++ {
		u.up = append(u.up, &Link{
			Name: fmt.Sprintf("h%d-up", i), Gbps: cfg.LinkGbps, QueueBytes: cfg.LinkQueueBytes,
		})
		u.down = append(u.down, &Link{
			Name: fmt.Sprintf("h%d-down", i), Gbps: cfg.LinkGbps, QueueBytes: cfg.LinkQueueBytes,
		})
	}
	return u
}

// Up and Down expose the per-host links (observability, tests).
func (u *Underlay) Up(i int) *Link   { return u.up[i] }
func (u *Underlay) Down(i int) *Link { return u.down[i] }

// InFlight returns the number of real frames currently inside the underlay
// (accepted by an uplink, not yet delivered or dropped).
func (u *Underlay) InFlight() int { return u.inFlight }

// transit carries one frame (or one flood-copy accounting token, s == nil)
// across the underlay's two serialization hops. It is its own event
// handler and returns to a freelist after the final hop.
type transit struct {
	u     *Underlay
	s     *skb.SKB
	bytes int
	dst   int
	hop   int // 0: arrived at the switch (enqueue downlink); 1: deliver
}

// Handle implements sim.Handler.
func (t *transit) Handle(_ any, now sim.Time) {
	u := t.u
	switch t.hop {
	case 0:
		dep, ok := u.down[t.dst].Send(now, t.bytes)
		if !ok {
			if t.s != nil {
				u.Drops++
				u.inFlight--
				u.drop(t.s)
			}
			u.put(t)
			return
		}
		if t.s == nil {
			// A flood copy ends at the downlink: its bandwidth is
			// accounted, no frame materializes.
			u.put(t)
			return
		}
		t.hop = 1
		u.sched.AtHandler(dep, t, nil)
	case 1:
		u.inFlight--
		u.Delivered++
		s := t.s
		dst := t.dst
		u.put(t)
		u.DeliverTo(dst, s)
	}
}

func (u *Underlay) drop(s *skb.SKB) {
	if u.Drop != nil {
		u.Drop(s)
	}
}

func (u *Underlay) get() *transit {
	if n := len(u.free); n > 0 {
		t := u.free[n-1]
		u.free = u.free[:n-1]
		return t
	}
	return &transit{u: u}
}

func (u *Underlay) put(t *transit) {
	t.s, t.bytes, t.dst, t.hop = nil, 0, 0, 0
	u.free = append(u.free, t)
}

// Send carries s from host tx toward host dst: uplink serialization, the
// propagation delay, downlink serialization, then DeliverTo. Returns false
// if the uplink queue tail-dropped the frame — ownership then stays with
// the caller (the traffic.Ingress contract: a false Deliver means the
// sender recycles the skb itself). Frames the underlay accepted are its
// own to retire: downlink tail-drops route through the Drop hook.
func (u *Underlay) Send(now sim.Time, tx, dst int, s *skb.SKB) bool {
	u.Sent++
	dep, ok := u.up[tx].Send(now, s.WireLen)
	if !ok {
		u.Drops++
		return false
	}
	u.inFlight++
	t := u.get()
	t.s, t.bytes, t.dst = s, s.WireLen, dst
	u.sched.AtHandler(dep.Add(u.lat), t, nil)
	return true
}

// SendCopy accounts one head-end-replication copy toward a non-owner peer:
// it consumes uplink and downlink bandwidth like a real frame but carries
// no skb — the owner's copy is the only one that materializes, so flooding
// costs wire capacity without double-delivering data.
func (u *Underlay) SendCopy(now sim.Time, tx, dst, bytes int) {
	dep, ok := u.up[tx].Send(now, bytes)
	if !ok {
		return
	}
	u.FloodCopies++
	t := u.get()
	t.bytes, t.dst = bytes, dst
	u.sched.AtHandler(dep.Add(u.lat), t, nil)
}

// learnEvt retro-teaches a TX host's FDB after a flooded frame reached its
// owner — the stand-in for the reply frame that would carry the learning
// in a real deployment (the simulator's ACK path is an abstract callback,
// not a wire frame). Scheduled one propagation delay after delivery.
type learnEvt struct {
	b    *netdev.Bridge
	mac  packet.MAC
	port int
}

// Handle implements sim.Handler.
func (e *learnEvt) Handle(_ any, now sim.Time) {
	e.b.LearnAt(e.mac, e.port, now)
}

// ScheduleLearn arms a reverse-learn event after the underlay's one-way
// latency: bridge b learns mac→port as if the owner's reply frame had just
// arrived.
func (u *Underlay) ScheduleLearn(b *netdev.Bridge, mac packet.MAC, port int) {
	u.sched.AfterHandler(u.lat, &learnEvt{b: b, mac: mac, port: port}, nil)
}
