package traffic

import (
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// UDPSender blasts fixed-size datagrams at the receiver as fast as its
// client core allows — UDP has no acknowledgement clock, so the sender is
// purely CPU-paced (and, as the paper observes, sockperf UDP clients
// overload their own cores; three clients are used to saturate one
// receive-side flow).
type UDPSender struct {
	FlowID   uint64
	MsgSize  int
	Core     *sim.Core
	Sched    *sim.Scheduler
	Net      Ingress
	NetDelay sim.Duration
	Cost     ClientCost
	// Seq is shared across the clients stressing one flow.
	Seq *SeqAlloc
	// MsgBase disambiguates message IDs across senders of one flow.
	MsgBase uint64
	// Pool, when set, supplies the sender's SKBs (nil = plain allocation).
	Pool *skb.Pool

	MsgsSent  uint64
	SegsSent  uint64
	BytesSent uint64

	stopped bool
	started bool

	// Closure-free scheduling: fragments wait by value in the queued
	// lane until the client core finishes them (its completions never
	// decrease); wire delivery and the loop continuation ride fixed
	// handler objects.
	queued *sim.Lane[udpFrag]
	netH   udpNetH
	loopH  udpLoopH
}

// udpFrag is a datagram fragment queued on the client core: everything its
// SKB needs, built only when the fragment reaches the wire.
type udpFrag struct {
	seq     uint64
	msgID   uint64
	payload int32
	msgEnd  bool
}

// onSent fires at a fragment's client-core completion instant: it builds
// the fragment's SKB and puts it on the wire.
func (u *UDPSender) onSent(f udpFrag, now sim.Time) {
	s := u.Pool.Get()
	s.FlowID = u.FlowID
	s.Proto = skb.UDP
	s.Seq = f.seq
	s.Segs = 1
	s.WireLen = int(f.payload) + 28 + 14 // ip+udp+eth headers
	s.PayloadLen = int(f.payload)
	s.MsgID = f.msgID
	s.MsgEnd = f.msgEnd
	s.SentAt = now
	u.Sched.AtHandler(now.Add(u.NetDelay), u.netH, s)
}

// udpNetH fires when a segment reaches the receiver NIC.
type udpNetH struct{ u *UDPSender }

// Handle implements sim.Handler.
func (h udpNetH) Handle(arg any, _ sim.Time) {
	s := arg.(*skb.SKB)
	if !h.u.Net.Deliver(s) {
		h.u.Pool.Put(s)
	}
}

// udpLoopH continues the send loop when the client core frees up.
type udpLoopH struct{ u *UDPSender }

// Handle implements sim.Handler.
func (h udpLoopH) Handle(any, sim.Time) { h.u.sendMsg() }

// Start begins the send loop. Safe to call once.
func (u *UDPSender) Start() {
	if u.started {
		return
	}
	u.started = true
	if u.Seq == nil {
		u.Seq = &SeqAlloc{}
	}
	u.queued = sim.NewLane(u.Sched, u.onSent)
	u.netH = udpNetH{u}
	u.loopH = udpLoopH{u}
	u.sendMsg()
}

// Stop ceases transmission.
func (u *UDPSender) Stop() { u.stopped = true }

func (u *UDPSender) sendMsg() {
	if u.stopped {
		return
	}
	// Fragment the datagram as IP would.
	frags := (u.MsgSize + UDPFragPayload - 1) / UDPFragPayload
	if frags < 1 {
		frags = 1
	}
	msgID := u.MsgBase + u.MsgsSent
	u.MsgsSent++
	remaining := u.MsgSize
	seq := u.Seq.Next(frags)
	for i := 0; i < frags; i++ {
		payload := remaining
		if payload > UDPFragPayload {
			payload = UDPFragPayload
		}
		remaining -= payload
		cost := u.Cost.PerSeg + sim.Duration(u.Cost.PerByte*float64(payload))
		if i == 0 {
			cost += u.Cost.PerMsg
		}
		u.SegsSent++
		u.BytesSent += uint64(payload)
		_, end := u.Core.Exec(cost, "udp-send")
		u.queued.At(end, udpFrag{seq: seq + uint64(i), msgID: msgID, payload: int32(payload), msgEnd: i == frags-1})
	}
	// Next datagram as soon as the client core frees up: the sender
	// saturates its CPU, the paper's client-side bottleneck.
	u.Sched.AtHandler(u.Core.FreeAt(), u.loopH, nil)
}
