// Package txpath models the sending host's transmit pipeline — the side of
// the system the paper's conclusion points at ("one [bottleneck] lies in
// clients/senders... we seek to address these bottlenecks in our future
// work"). A transmit traverses the socket send path on an application core,
// then the container egress chain on a kernel core — GSO-sized super
// packets through veth, bridge and VxLAN encapsulation, a bounded qdisc,
// the NIC TX ring — and finally serializes onto the wire at link rate.
//
// The pipeline implements traffic.Ingress, so it slots transparently
// between a sender and the receiving host's NIC: enable it with
// overlay.Scenario.ModelTX. By default the overlay experiments keep the
// paper-calibrated aggregate client costs instead (the receive path is
// the paper's subject); txpath exists to study the sender side explicitly.
package txpath

import (
	"mflow/internal/netdev"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/traffic"
)

// Costs are the transmit-side stage costs. GSO keeps TCP segments fused
// until the NIC (TSO), so the per-skb stage costs amortize over segments
// for TCP the same way GRO amortizes receive costs; UDP pays per datagram.
type Costs struct {
	// Socket is the sendmsg path: syscall, socket locks and the
	// copy-in, charged on the application core.
	Socket netdev.Cost
	// GSO is segmentation bookkeeping (per wire segment, kernel core).
	GSO netdev.Cost
	// Veth / Bridge / Encap are the container egress chain (per skb).
	Veth   netdev.Cost
	Bridge netdev.Cost
	Encap  netdev.Cost
	// Qdisc is enqueue+dequeue on the traffic-control layer (per skb).
	Qdisc netdev.Cost
	// NICTx is descriptor posting + doorbell (per wire segment).
	NICTx netdev.Cost
	// WireBps is the link rate serializing frames (100 Gb/s testbed).
	WireBps float64
}

// DefaultCosts calibrates the transmit path so that its aggregate
// per-segment cost matches the receive-side cost table's client model:
// senders remain the bottleneck for small TCP messages and for UDP
// blasting, as the paper observes.
func DefaultCosts() Costs {
	return Costs{
		Socket:  netdev.Cost{PerSKB: 2600, PerByte: 0.004},
		GSO:     netdev.Cost{PerSeg: 45},
		Veth:    netdev.Cost{PerSKB: 180},
		Bridge:  netdev.Cost{PerSKB: 160},
		Encap:   netdev.Cost{PerSKB: 450, PerByte: 0.02},
		Qdisc:   netdev.Cost{PerSKB: 90},
		NICTx:   netdev.Cost{PerSeg: 55},
		WireBps: 100e9,
	}
}

// qdiscCap bounds the traffic-control queue (pfifo_fast default ~1000).
const qdiscCap = 1000

// Pipeline is one sender's transmit path. It accepts application messages
// as segment skbs (from traffic senders), charges the socket path on App,
// batches segments into GSO super-packets for TCP, runs the egress chain
// on Kernel behind a bounded qdisc, serializes on the wire and hands each
// original segment to Out in order.
type Pipeline struct {
	App    *sim.Core
	Kernel *sim.Core
	Out    traffic.Ingress
	Costs  Costs
	// Overlay charges VxLAN encapsulation (container egress); native
	// paths skip veth/bridge/encap.
	Overlay bool

	sched *sim.Scheduler
	wire  *sim.Core // the link, modeled as a serializing resource
	qdisc *sim.Worker[*txUnit]

	pending   *txUnit // GSO unit still accepting same-message segments
	lastMsg   uint64
	lastProto skb.Proto

	// Closure-free scheduling: serialized segments wait in the wire lane
	// (the wire core's completions never decrease), enqueues ride a fixed
	// handler object, and GSO units recycle on a freelist (a unit dies as
	// soon as its segments hit the wire, so a handful cover any pipeline
	// depth).
	wired    *sim.Lane[*skb.SKB]
	enqH     txEnqH
	unitFree []*txUnit

	// SentSegments / QdiscDrops count egress traffic and tail drops.
	SentSegments uint64
	QdiscDrops   uint64
}

// txUnit is a GSO super-packet in flight through the egress chain.
type txUnit struct {
	segs []*skb.SKB
}

// txEnqH enqueues a closed GSO unit onto the qdisc at the socket path's
// completion instant.
type txEnqH struct{ p *Pipeline }

// Handle implements sim.Handler.
func (h txEnqH) Handle(arg any, _ sim.Time) {
	p := h.p
	u := arg.(*txUnit)
	if !p.qdisc.Enqueue(u) {
		p.QdiscDrops += uint64(len(u.segs))
		if p.pending == u {
			p.pending = nil
		}
		p.putUnit(u)
		return
	}
	if p.pending == u {
		p.pending = nil
	}
}

func (p *Pipeline) getUnit() *txUnit {
	if n := len(p.unitFree); n > 0 {
		u := p.unitFree[n-1]
		p.unitFree = p.unitFree[:n-1]
		return u
	}
	return &txUnit{}
}

func (p *Pipeline) putUnit(u *txUnit) {
	u.segs = u.segs[:0]
	p.unitFree = append(p.unitFree, u)
}

// New builds a pipeline on the given cores delivering into out.
func New(app, kernel *sim.Core, sched *sim.Scheduler, costs Costs, overlay bool, out traffic.Ingress) *Pipeline {
	p := &Pipeline{
		App:     app,
		Kernel:  kernel,
		Out:     out,
		Costs:   costs,
		Overlay: overlay,
		sched:   sched,
		wire:    sim.NewCore(-1, sched),
	}
	p.qdisc = &sim.Worker[*txUnit]{
		Name:   "qdisc",
		Core:   kernel,
		Sched:  sched,
		Budget: sim.DefaultBudget,
		Cap:    qdiscCap,
		Cost:   p.unitCost,
		Then:   p.transmit,
	}
	p.wired = sim.NewLane(sched, p.deliverOut)
	p.enqH = txEnqH{p}
	return p
}

func (p *Pipeline) unitCost(u *txUnit) sim.Duration {
	head := u.segs[0]
	segs := 0
	bytes := 0
	for _, s := range u.segs {
		segs += s.Segs
		bytes += s.WireLen
	}
	agg := skb.SKB{Segs: segs, WireLen: bytes}
	c := p.Costs.GSO.Of(&agg) + p.Costs.Qdisc.Of(head) + p.Costs.NICTx.Of(&agg)
	if p.Overlay {
		c += p.Costs.Veth.Of(head) + p.Costs.Bridge.Of(head) + p.Costs.Encap.Of(&agg)
	}
	return c
}

// transmit serializes the unit's segments onto the wire, delivering each to
// the receiving NIC at its serialization completion instant.
func (p *Pipeline) transmit(u *txUnit, _ sim.Time) {
	for _, s := range u.segs {
		d := sim.Duration(float64(s.WireLen*8) / p.Costs.WireBps * 1e9)
		if d < 1 {
			d = 1
		}
		_, end := p.wire.Exec(d, "wire")
		p.SentSegments += uint64(s.Segs)
		p.wired.At(end, s)
	}
	p.putUnit(u)
}

// deliverOut hands one wire-serialized segment to the receiving NIC.
func (p *Pipeline) deliverOut(s *skb.SKB, _ sim.Time) { p.Out.Deliver(s) }

// Deliver implements traffic.Ingress: a sender's segment enters the socket
// send path. Consecutive same-message TCP segments fuse into one GSO unit
// (the socket cost is charged once per message).
func (p *Pipeline) Deliver(s *skb.SKB) bool {
	chargeSocket := s.Proto == skb.UDP || s.Seq == 0 || s.MsgID != p.lastMsg ||
		p.lastProto != s.Proto
	p.lastMsg, p.lastProto = s.MsgID, s.Proto

	var end sim.Time
	if chargeSocket {
		_, end = p.App.Exec(p.Costs.Socket.Of(s), "tx-socket")
	} else {
		_, end = p.App.Exec(p.Costs.Socket.Of(s)/8, "tx-socket") // within-message continuation
	}
	// GSO fuse: TCP segments of one message form one unit per enqueue
	// window; UDP datagram fragments travel as one unit per datagram.
	u := p.pending
	if u != nil && s.Proto == skb.TCP && len(u.segs) < 45 &&
		u.segs[len(u.segs)-1].MsgID == s.MsgID {
		u.segs = append(u.segs, s)
		return true
	}
	u = p.getUnit()
	u.segs = append(u.segs, s)
	p.pending = u
	p.sched.AtHandler(end, p.enqH, u)
	return true
}

var _ traffic.Ingress = (*Pipeline)(nil)
