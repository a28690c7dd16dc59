package traffic

import (
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Retransmission-timer bounds (RFC 6298 shape, scaled to the testbed's
// microsecond RTTs) and the backoff cap.
const (
	rtoMin     = 200 * sim.Microsecond
	rtoMax     = 20 * sim.Millisecond
	maxBackoff = 10
	// sackBudget caps how many holes one recovery sweep retransmits.
	sackBudget = 128
)

// segRec is the retransmit buffer's record of one unacknowledged segment.
type segRec struct {
	payload int
	msgID   uint64
	msgEnd  bool
	sentAt  sim.Time // first transmission (Karn: resends are never sampled)
	retx    bool     // has been retransmitted at least once
	retxAt  sim.Time // last retransmission (holds off spurious re-resends)
}

// TCPSender streams fixed-size messages over one TCP flow, window-limited
// like a real sender: at most Window segments may be outstanding
// (unacknowledged), and cumulative ACKs from the receiver's socket open the
// window. Throughput therefore emerges from whichever stage of the receive
// pipeline is slowest — including the receiver's user-space copy thread,
// because acknowledgements are clocked by consumption.
//
// With Reliable set (fault-injected runs) the sender also recovers from
// loss: every unacknowledged segment is held in a retransmit buffer, an
// adaptive retransmission timer (SRTT + 4×RTTVAR, exponential backoff,
// Karn's rule) resends the receiver's first missing segment on expiry, and
// a third duplicate ACK for the same hole triggers fast retransmit. The
// reverse (ACK) path is modeled lossless. Lossless runs leave Reliable
// false and take byte-for-byte the seed's code path.
type TCPSender struct {
	FlowID  uint64
	MsgSize int
	// Window is the maximum outstanding segments (the paper observes
	// ~2000 MTU packets outstanding at 30 Gbps; the experiments'
	// scenarios default to 2048). Zero or less falls back to 512.
	Window int
	Core   *sim.Core
	Sched  *sim.Scheduler
	Net    Ingress
	// NetDelay is the one-way wire latency.
	NetDelay sim.Duration
	Cost     ClientCost
	Seq      *SeqAlloc

	// Reliable enables the retransmit buffer, the RTO timer and fast
	// retransmit. InitialRTO seeds the timer before any RTT sample
	// exists (required when Reliable).
	Reliable   bool
	InitialRTO sim.Duration
	// Missing, when set, is the receiver's hole map — the information
	// SACK blocks carry on real ACKs. During recovery the sender sweeps
	// it and retransmits every known hole at once (bounded by sackBudget
	// and a per-segment re-send holdoff) instead of discovering holes one
	// round trip at a time. Nil degrades to NewReno-style serial recovery.
	// Its result may be receiver scratch valid only until the next call
	// (TCPReceiver.Missing), so the sweep reads it once, never retaining it.
	Missing func(max int) []uint64

	// Pool, when set, supplies the sender's SKBs (nil = plain allocation).
	Pool *skb.Pool

	// OnRTO, if set, observes each retransmission-timer expiry that
	// resent data (the anomaly flight-recorder trigger). Observation
	// only; nil in unprobed runs.
	OnRTO func()

	// Stats.
	MsgsSent  uint64
	SegsSent  uint64
	BytesSent uint64
	// Retransmits counts all resent segments; RTOTimeouts counts timer
	// expiries that resent data; FastRetransmits counts triple-dup-ACK
	// recoveries.
	Retransmits     uint64
	RTOTimeouts     uint64
	FastRetransmits uint64

	acked   uint64
	inMsg   int // bytes of the current message already segmented
	msgID   uint64
	stopped bool
	started bool

	// Reliable-mode state.
	sent         map[uint64]*segRec // unacked segments by sequence
	srtt, rttvar sim.Duration
	backoff      uint
	frontier     uint64 // receiver's receipt frontier (max dup-ACK seq seen)
	dupSeq       uint64 // hole the current dup-ACK run points at
	dupCount     int
	recoverSeq   uint64 // NewReno recovery point (Seq.Sent() at recovery entry)
	recovering   bool   // in loss recovery until acked reaches recoverSeq
	rtoGen       uint64 // invalidates superseded timer events
	rtoArmed     bool

	// Closure-free scheduling: first transmissions wait by value in the
	// queued lane until the client core finishes them (its completions
	// never decrease); retransmissions and RTO expiries carry their state
	// (the segment record, the retransmit sequence, the RTO generation)
	// in a pooled txEvt through the event's arg slot.
	queued    *sim.Lane[txSeg]
	retxDoneH tcpRetxDoneH
	netH      tcpNetH
	rtoH      tcpRTOH
	evtFree   []*txEvt
}

// txSeg is a first transmission queued on the client core: everything the
// segment's SKB needs, built only when the segment reaches the wire.
type txSeg struct {
	rec     *segRec // retransmit-buffer record (nil unless Reliable)
	seq     uint64
	msgID   uint64
	payload int32
	msgEnd  bool
}

// txEvt carries per-event state for the sender's retransmission and timer
// events; instances are recycled on a sender-local freelist.
type txEvt struct {
	rec *segRec
	n   uint64 // retransmit sequence, or RTO generation
}

func (t *TCPSender) getEvt() *txEvt {
	if n := len(t.evtFree); n > 0 {
		e := t.evtFree[n-1]
		t.evtFree = t.evtFree[:n-1]
		return e
	}
	return &txEvt{}
}

func (t *TCPSender) putEvt(e *txEvt) {
	*e = txEvt{}
	t.evtFree = append(t.evtFree, e)
}

// onSent fires at a first transmission's client-core completion: it stamps
// the send time (Karn's RTT baseline), builds the segment's SKB and puts it
// on the wire. The record pointer is carried, not looked up, so an
// acknowledgement that already deleted the record still gets its (harmless)
// stamp.
func (t *TCPSender) onSent(g txSeg, now sim.Time) {
	if g.rec != nil {
		g.rec.sentAt = now
	}
	s := t.segment(g.seq, int(g.payload), g.msgID, g.msgEnd)
	s.SentAt = now
	t.Sched.AtHandler(now.Add(t.NetDelay), t.netH, s)
}

// segment builds the SKB for one data segment.
func (t *TCPSender) segment(seq uint64, payload int, msgID uint64, msgEnd bool) *skb.SKB {
	s := t.Pool.Get()
	s.FlowID = t.FlowID
	s.Proto = skb.TCP
	s.Seq = seq
	s.Segs = 1
	s.WireLen = payload + 52 // inner eth+ip+tcp headers
	s.PayloadLen = payload
	s.MsgID = msgID
	s.MsgEnd = msgEnd
	return s
}

// tcpRetxDoneH fires at a retransmission's completion. The SKB is built here
// — not when the retransmission was issued — because rec.sentAt may only be
// stamped by the original transmission's completion event, which is
// guaranteed to precede this one (the client core is FIFO).
type tcpRetxDoneH struct{ t *TCPSender }

// Handle implements sim.Handler.
func (h tcpRetxDoneH) Handle(arg any, now sim.Time) {
	t := h.t
	e := arg.(*txEvt)
	rec, seq := e.rec, e.n
	t.putEvt(e)
	s := t.segment(seq, rec.payload, rec.msgID, rec.msgEnd)
	s.SentAt = rec.sentAt // latency measured from first transmission
	t.Sched.AtHandler(now.Add(t.NetDelay), t.netH, s)
}

// tcpNetH fires when a segment reaches the receiver NIC.
type tcpNetH struct{ t *TCPSender }

// Handle implements sim.Handler.
func (h tcpNetH) Handle(arg any, _ sim.Time) {
	s := arg.(*skb.SKB)
	if !h.t.Net.Deliver(s) {
		h.t.Pool.Put(s)
	}
}

// tcpRTOH fires at a retransmission-timer expiry; the armed generation rides
// the event so superseded timers die on the generation check.
type tcpRTOH struct{ t *TCPSender }

// Handle implements sim.Handler.
func (h tcpRTOH) Handle(arg any, _ sim.Time) {
	e := arg.(*txEvt)
	gen := e.n
	h.t.putEvt(e)
	h.t.onRTO(gen)
}

// Start begins streaming. Safe to call once.
func (t *TCPSender) Start() {
	if t.started {
		return
	}
	t.started = true
	if t.Seq == nil {
		t.Seq = &SeqAlloc{}
	}
	if t.Reliable {
		t.sent = make(map[uint64]*segRec)
	}
	t.queued = sim.NewLane(t.Sched, t.onSent)
	t.retxDoneH = tcpRetxDoneH{t}
	t.netH = tcpNetH{t}
	t.rtoH = tcpRTOH{t}
	t.pump()
}

// Stop ceases new transmissions (in-flight segments still arrive).
func (t *TCPSender) Stop() { t.stopped = true }

// Ack is the receiver's cumulative acknowledgement callback; wire it via
// the socket with the return-path delay applied by the caller.
func (t *TCPSender) Ack(endSeq uint64, at sim.Time) {
	if endSeq > t.acked {
		if t.Reliable {
			for s := t.acked; s < endSeq; s++ {
				rec, ok := t.sent[s]
				if !ok {
					continue
				}
				if !rec.retx {
					t.rttSample(at.Sub(rec.sentAt))
				}
				delete(t.sent, s)
			}
			if endSeq > t.frontier {
				t.frontier = endSeq
			}
			t.backoff = 0
			t.dupCount = 0
			// NewReno exit: recovery persists across partial ACKs and ends
			// only once everything outstanding at recovery entry is acked.
			if t.recovering && endSeq >= t.recoverSeq {
				t.recovering = false
			}
		}
		t.acked = endSeq
		if t.Reliable {
			// Restart the timer with the fresh (un-backed-off) RTO, or
			// cancel it when everything in flight has been acknowledged.
			if t.Outstanding() > 0 {
				t.armRTO()
			} else {
				t.disarmRTO()
			}
		}
	}
	t.pump()
}

// DupAck is the receiver's immediate-acknowledgement callback for
// out-of-order, duplicate, or hole-exposing arrivals; seq is the
// receiver's first missing sequence. Three duplicate ACKs for the same
// hole trigger fast retransmit and enter recovery; while recovery is in
// progress, every advance of the receipt frontier names the next hole and
// is retransmitted immediately — one hole per round trip, like NewReno's
// partial-ACK retransmission (the consumption-clocked cumulative ACK may
// lag the frontier, so the timer alone would chase already-received data).
func (t *TCPSender) DupAck(seq uint64) {
	if !t.Reliable || t.stopped || !t.started {
		return
	}
	if seq > t.frontier {
		t.frontier = seq
		t.dupSeq, t.dupCount = seq, 1
		if t.recovering {
			t.recoveryResend(seq)
		}
		return
	}
	if seq < t.frontier || seq < t.acked {
		return
	}
	if seq != t.dupSeq {
		t.dupSeq, t.dupCount = seq, 1
		return
	}
	t.dupCount++
	if t.dupCount == 3 && !t.recovering {
		t.recovering = true
		t.recoverSeq = t.Seq.Sent()
		t.FastRetransmits++
		t.recoveryResend(seq)
	}
}

// recoveryResend resends loss-recovery data: with a SACK scoreboard it
// sweeps every known hole at once; without one it resends only the named
// hole (serial NewReno recovery).
func (t *TCPSender) recoveryResend(seq uint64) {
	if t.Missing == nil {
		t.retransmit(seq)
		return
	}
	t.sackSweep(false)
}

// sackSweep queries the receiver's hole map and retransmits every missing
// segment that is not already being retried. The holdoff — rtoMin since the
// segment's last retransmission — keeps the sweep idempotent across the
// burst of duplicate ACKs a single loss event generates, while still
// allowing a retry when the retransmission itself was lost. An RTO-driven
// sweep sets force: the timer expiring is proof the previous attempt
// failed, so every known hole is resent regardless of holdoff.
func (t *TCPSender) sackSweep(force bool) {
	holes := t.Missing(sackBudget)
	if len(holes) == 0 {
		return
	}
	now := t.Sched.Now()
	for _, seq := range holes {
		if seq < t.acked {
			continue
		}
		rec, ok := t.sent[seq]
		if !ok {
			continue
		}
		if !force && rec.retx && now.Sub(rec.retxAt) < rtoMin {
			continue
		}
		t.retransmit(seq)
	}
}

// Outstanding returns the segments in flight.
func (t *TCPSender) Outstanding() int { return int(t.Seq.Sent() - t.acked) }

func (t *TCPSender) pump() {
	if t.stopped || !t.started {
		return
	}
	win := t.Window
	if win <= 0 {
		win = 512
	}
	for t.Outstanding() < win {
		t.sendSegment()
	}
}

// sendSegment charges one new segment to the client core and queues it on
// the queued lane for its completion instant.
func (t *TCPSender) sendSegment() {
	payload := t.MsgSize - t.inMsg
	if payload > MSS {
		payload = MSS
	}
	first := t.inMsg == 0
	t.inMsg += payload
	last := t.inMsg >= t.MsgSize
	msgID := t.msgID
	if last {
		t.inMsg = 0
		t.msgID++
		t.MsgsSent++
	}

	seq := t.Seq.Next(1)
	cost := t.Cost.PerSeg + sim.Duration(t.Cost.PerByte*float64(payload))
	if first {
		cost += t.Cost.PerMsg
	}
	t.SegsSent++
	t.BytesSent += uint64(payload)
	var rec *segRec
	if t.Reliable {
		rec = &segRec{payload: payload, msgID: msgID, msgEnd: last}
		t.sent[seq] = rec
		if !t.rtoArmed {
			t.armRTO()
		}
	}
	_, end := t.Core.Exec(cost, "tcp-send")
	t.queued.At(end, txSeg{rec: rec, seq: seq, msgID: msgID, payload: int32(payload), msgEnd: last})
}

// retransmit resends the buffered segment at seq, if still unacknowledged.
func (t *TCPSender) retransmit(seq uint64) {
	rec, ok := t.sent[seq]
	if !ok {
		return
	}
	rec.retx = true
	rec.retxAt = t.Sched.Now()
	t.Retransmits++
	t.SegsSent++
	cost := t.Cost.PerSeg + sim.Duration(t.Cost.PerByte*float64(rec.payload))
	_, end := t.Core.Exec(cost, "tcp-send")
	e := t.getEvt()
	e.rec, e.n = rec, seq
	t.Sched.AtHandler(end, t.retxDoneH, e)
	t.armRTO()
}

// rttSample folds one round-trip measurement into SRTT/RTTVAR (RFC 6298).
// The sample clock is consumption-based (ACKs fire when the application
// copies data), so the adaptive timeout automatically covers the
// receiver's full pipeline depth.
func (t *TCPSender) rttSample(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	if t.srtt == 0 {
		t.srtt = rtt
		t.rttvar = rtt / 2
		return
	}
	diff := t.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	t.rttvar = (3*t.rttvar + diff) / 4
	t.srtt = (7*t.srtt + rtt) / 8
}

// currentRTO returns the timer duration with backoff applied.
func (t *TCPSender) currentRTO() sim.Duration {
	rto := t.InitialRTO
	if t.srtt > 0 {
		rto = t.srtt + 4*t.rttvar
	}
	if rto < rtoMin {
		rto = rtoMin
	}
	b := t.backoff
	if b > maxBackoff {
		b = maxBackoff
	}
	rto <<= b
	if rto > rtoMax {
		rto = rtoMax
	}
	return rto
}

// armRTO (re)starts the retransmission timer for the current RTO,
// invalidating any previously scheduled expiry (RFC 6298 restarts the
// timer on new ACKs and on retransmission). Stale events stay in the heap
// until their time but die on the generation check.
func (t *TCPSender) armRTO() {
	if !t.Reliable || t.stopped {
		return
	}
	t.rtoGen++
	t.rtoArmed = true
	e := t.getEvt()
	e.n = t.rtoGen
	t.Sched.AfterHandler(t.currentRTO(), t.rtoH, e)
}

// disarmRTO cancels the pending expiry (all data acknowledged).
func (t *TCPSender) disarmRTO() {
	t.rtoGen++
	t.rtoArmed = false
}

func (t *TCPSender) onRTO(gen uint64) {
	if gen != t.rtoGen || t.stopped {
		return
	}
	t.rtoArmed = false
	if t.Outstanding() == 0 {
		return
	}
	t.RTOTimeouts++
	if t.OnRTO != nil {
		t.OnRTO()
	}
	t.recovering = true
	t.recoverSeq = t.Seq.Sent()
	if t.backoff < maxBackoff {
		t.backoff++
	}
	// Resend the first segment the receiver is missing. The frontier
	// (from dup ACKs) can be ahead of acked, which only tracks
	// consumption; resending below it would be a guaranteed duplicate.
	seq := t.acked
	if t.frontier > seq {
		seq = t.frontier
	}
	t.retransmit(seq)
	if t.Missing != nil {
		// With a scoreboard, recover every other known hole in the same
		// timeout instead of one hole per expiry. The timer expiring is
		// proof earlier attempts failed, so holdoffs are overridden.
		t.sackSweep(true)
	}
	t.armRTO()
}
