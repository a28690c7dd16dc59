// Package fault is the deterministic fault-injection subsystem: it models
// the failures real overlay networks see — random and bursty link loss,
// frame duplication, payload corruption, and CPU interference ("core
// stalls") — at well-defined points of the simulated receive path. Every
// decision draws from the injector's own seeded PRNG, never from the
// scheduler's, so two runs with the same scenario seed and the same fault
// plan take identical fault decisions, and a plan with every rate at zero
// leaves a run bit-for-bit identical to an uninjected one.
//
// Injection points (chosen where real stacks lose packets):
//
//	wire     — before NIC arrival: drop (uniform or Gilbert–Elliott burst),
//	           duplicate, corrupt (detectable by wire-mode checksums)
//	ring     — NIC descriptor-ring admission (DMA/overrun-style loss)
//	backlog  — softirq backlog enqueue (netif_rx drops)
//	socket   — socket receive-queue enqueue (rmem pressure; UDP paths only,
//	           TCP advertises a window instead of dropping acked data)
//
// Core stalls and IRQ jitter are applied through sim.Core's existing
// interference/jitter knobs on the kernel-core pool.
package fault

import (
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Defaults used when a Plan enables faults but leaves the recovery knobs
// unset.
const (
	// DefaultRTO is the sender's initial retransmission timeout before any
	// RTT sample exists.
	DefaultRTO = 2 * sim.Millisecond
	// DefaultGapTimeout is how long the MFLOW reassembler waits on an
	// empty buffer queue before rotating past the hole.
	DefaultGapTimeout = 500 * sim.Microsecond
	// DefaultOFOCap bounds the kernel TCP out-of-order queue under faults
	// (tcp_max_ofo-style pruning).
	DefaultOFOCap = 4096
)

// GilbertElliott is the classic two-state burst-loss channel: the link
// moves between a Good and a Bad state with per-packet transition
// probabilities, and drops packets with a state-dependent probability.
// Mean burst length is 1/PBadGood packets; the stationary fraction of time
// spent in the bad state is PGoodBad/(PGoodBad+PBadGood).
type GilbertElliott struct {
	// PGoodBad / PBadGood are the per-packet state transition
	// probabilities (good→bad and bad→good).
	PGoodBad float64
	PBadGood float64
	// LossGood / LossBad are the per-packet drop probabilities in each
	// state (classic Gilbert: LossGood=0, LossBad near 1).
	LossGood float64
	LossBad  float64
}

// Profile describes the wire-level faults applied to each arriving frame.
type Profile struct {
	// Drop is a uniform per-frame drop probability.
	Drop float64
	// Burst, when set, adds Gilbert–Elliott burst loss on top of Drop.
	Burst *GilbertElliott
	// Dup is the per-frame duplication probability (the duplicate is a
	// deep copy delivered immediately after the original).
	Dup float64
	// Corrupt is the per-frame corruption probability. In wire mode the
	// frame's bytes are flipped inside the outer IPv4 header so the
	// existing header checksum / decap validation catches it downstream;
	// without wire bytes a corrupted frame is dropped (the NIC/stack
	// would discard it on checksum failure).
	Corrupt float64
}

// active reports whether the profile can affect any frame.
func (p Profile) active() bool {
	return p.Drop > 0 || p.Dup > 0 || p.Corrupt > 0 ||
		(p.Burst != nil && (p.Burst.LossGood > 0 || p.Burst.LossBad > 0))
}

// Plan configures every fault point of one scenario run.
type Plan struct {
	// Seed perturbs the injector's PRNG independently of the scenario
	// seed (zero is fine; the scenario seed still applies).
	Seed uint64

	// Wire is the lossy-link profile applied before NIC arrival.
	Wire Profile
	// RingDrop / BacklogDrop / SockDrop are per-enqueue drop
	// probabilities at the NIC descriptor ring, the softirq backlog
	// queues, and the (UDP) socket receive queue.
	RingDrop    float64
	BacklogDrop float64
	SockDrop    float64

	// StallProb adds per-execution interference ("core stall") on every
	// kernel core with exponentially distributed duration of mean
	// StallMean; IRQJitter widens the cores' log-normal execution jitter.
	StallProb float64
	StallMean sim.Duration
	IRQJitter float64

	// RTO overrides the TCP sender's initial retransmission timeout
	// (DefaultRTO when zero). GapTimeout overrides the reassembler's
	// hole-release timer (DefaultGapTimeout when zero). OFOCap overrides
	// the TCP out-of-order queue bound (DefaultOFOCap when zero).
	RTO        sim.Duration
	GapTimeout sim.Duration
	OFOCap     int
}

// Enabled reports whether the plan injects any fault at all. A nil plan or
// a plan with every rate at zero is inert: the topology builder wires
// nothing, so the run is bit-for-bit identical to one without a plan.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.Wire.active() || p.RingDrop > 0 || p.BacklogDrop > 0 || p.SockDrop > 0 ||
		p.StallProb > 0 || p.IRQJitter > 0
}

// WireActive reports whether the plan's wire profile can affect any frame
// (the topology builder only interposes the wire tap when it can).
func (p *Plan) WireActive() bool { return p != nil && p.Wire.active() }

// RTOOrDefault returns the plan's initial RTO, defaulted.
func (p *Plan) RTOOrDefault() sim.Duration {
	if p != nil && p.RTO > 0 {
		return p.RTO
	}
	return DefaultRTO
}

// GapTimeoutOrDefault returns the plan's reassembler hole-release timeout,
// defaulted.
func (p *Plan) GapTimeoutOrDefault() sim.Duration {
	if p != nil && p.GapTimeout > 0 {
		return p.GapTimeout
	}
	return DefaultGapTimeout
}

// OFOCapOrDefault returns the plan's TCP out-of-order queue bound,
// defaulted.
func (p *Plan) OFOCapOrDefault() int {
	if p != nil && p.OFOCap > 0 {
		return p.OFOCap
	}
	return DefaultOFOCap
}

// ChaosProfiles returns the named fault plans of the chaos harness: the
// acceptance matrix every system × protocol must survive. "random" is
// uniform 1% frame loss with light duplication; "burst" is a
// Gilbert–Elliott channel with mean burst length 10 frames and ~2%
// stationary loss. Callers get fresh plans each time (safe to mutate).
func ChaosProfiles() map[string]*Plan {
	return map[string]*Plan{
		"random": {
			Wire: Profile{Drop: 0.01, Dup: 0.002},
		},
		"burst": {
			Wire: Profile{
				Burst: &GilbertElliott{PGoodBad: 0.002, PBadGood: 0.1, LossBad: 0.75},
			},
		},
	}
}

// Ingress matches traffic.Ingress structurally (declared here so the fault
// package does not depend on the traffic package).
type Ingress interface {
	Deliver(*skb.SKB) bool
}

// Injector takes the per-packet fault decisions for one run. It is
// single-goroutine like the simulation; one run, one injector.
type Injector struct {
	plan Plan
	rng  *sim.Rand
	bad  bool // Gilbert–Elliott channel state

	// Per-point fault counters.
	WireDrops    uint64
	BurstDrops   uint64
	WireDups     uint64
	WireCorrupts uint64
	RingDrops    uint64
	BacklogDrops uint64
	SockDrops    uint64
}

// NewInjector returns an injector for plan, seeded from the scenario seed
// mixed with the plan's own seed. The injector's PRNG is independent of the
// scheduler's, so fault decisions never perturb execution jitter draws.
func NewInjector(plan Plan, scenarioSeed uint64) *Injector {
	return &Injector{
		plan: plan,
		rng:  sim.NewRand(scenarioSeed ^ plan.Seed ^ 0xfa017fa017fa017f),
	}
}

// Total returns the number of faults injected so far across all points.
func (in *Injector) Total() uint64 {
	return in.WireDrops + in.BurstDrops + in.WireDups + in.WireCorrupts +
		in.RingDrops + in.BacklogDrops + in.SockDrops
}

// Drops returns the injected drops (everything except duplications;
// corruptions count, since a corrupted frame is either discarded or
// delivered unusable).
func (in *Injector) Drops() uint64 {
	return in.WireDrops + in.BurstDrops + in.WireCorrupts +
		in.RingDrops + in.BacklogDrops + in.SockDrops
}

// dropWire advances the burst channel one packet and decides a wire drop.
// A zero channel can never drop, so it draws nothing, exactly like nil.
func (in *Injector) dropWire() (drop, burst bool) {
	p := in.plan.Wire
	if g := p.Burst; g != nil && *g != (GilbertElliott{}) {
		if in.bad {
			if in.rng.Float64() < g.PBadGood {
				in.bad = false
			}
		} else if in.rng.Float64() < g.PGoodBad {
			in.bad = true
		}
		loss := g.LossGood
		if in.bad {
			loss = g.LossBad
		}
		if loss > 0 && in.rng.Float64() < loss {
			return true, true
		}
	}
	if p.Drop > 0 && in.rng.Float64() < p.Drop {
		return true, false
	}
	return false, false
}

// DropRing decides (and counts) a NIC-ring admission drop.
func (in *Injector) DropRing() bool {
	if in.plan.RingDrop > 0 && in.rng.Float64() < in.plan.RingDrop {
		in.RingDrops++
		return true
	}
	return false
}

// DropBacklog decides (and counts) a softirq-backlog enqueue drop.
func (in *Injector) DropBacklog() bool {
	if in.plan.BacklogDrop > 0 && in.rng.Float64() < in.plan.BacklogDrop {
		in.BacklogDrops++
		return true
	}
	return false
}

// DropSock decides (and counts) a socket receive-queue enqueue drop.
func (in *Injector) DropSock() bool {
	if in.plan.SockDrop > 0 && in.rng.Float64() < in.plan.SockDrop {
		in.SockDrops++
		return true
	}
	return false
}

// Clone deep-copies an skb (including wire bytes) for duplication. A plain
// struct copy would alias the original's arena and frag chain, so the copy
// goes through skb.Clone, which rebuilds the byte stream in the clone's
// own arena (headroom preserved).
func Clone(s *skb.SKB) *skb.SKB {
	return s.Clone()
}

// wireTap applies the wire profile in front of an ingress point.
type wireTap struct {
	in   *Injector
	next Ingress
}

// Wrap returns an ingress that applies the plan's wire profile (drop,
// duplicate, corrupt) to every frame before handing it to next. Frames the
// tap drops report false, like a NIC rejecting them.
func (in *Injector) Wrap(next Ingress) Ingress {
	return &wireTap{in: in, next: next}
}

// Deliver implements Ingress.
func (t *wireTap) Deliver(s *skb.SKB) bool {
	in := t.in
	if drop, burst := in.dropWire(); drop {
		if burst {
			in.BurstDrops++
		} else {
			in.WireDrops++
		}
		return false
	}
	if in.plan.Wire.Dup > 0 && in.rng.Float64() < in.plan.Wire.Dup {
		in.WireDups++
		t.next.Deliver(Clone(s))
	}
	if in.plan.Wire.Corrupt > 0 && in.rng.Float64() < in.plan.Wire.Corrupt {
		in.WireCorrupts++
		if s.Data == nil {
			// No wire bytes to flip: the frame would fail its checksum
			// in hardware or at the IP layer — model it as a drop.
			return false
		}
		in.corrupt(s.Data)
	}
	return t.next.Deliver(s)
}

// corrupt flips one byte inside the frame's leading IPv4 header region so
// the header checksum (validated by the wire-mode parse path) catches it.
func (in *Injector) corrupt(data []byte) {
	// Ethernet header is 14 bytes; the IPv4 header follows. Flip within
	// the first header's 20 bytes (never past the buffer).
	off := 14 + in.rng.Intn(20)
	if off >= len(data) {
		off = in.rng.Intn(len(data))
	}
	data[off] ^= 0xff
}
