// Package proto implements the stateful tail of the receive path: the TCP
// receive machine (sequence tracking, the kernel-style out-of-order queue,
// cumulative acknowledgements and a sender window), the UDP receive path,
// and the socket delivery stage where a single application thread copies
// payload from kernel buffers to user space — the "core 0" thread that the
// paper identifies as MFLOW's residual bottleneck.
package proto

import (
	"slices"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

// AckFn informs a sender that the receiver has consumed all segments below
// endSeq (cumulative acknowledgement), opening its window.
type AckFn func(endSeq uint64, at sim.Time)

// TCPReceiver enforces TCP's in-order delivery contract: segments (or GRO
// super-packets) whose sequence matches the expected next sequence are
// delivered onward; anything else is parked in an out-of-order queue —
// which costs CPU per packet, the overhead MFLOW's batch reassembly avoids
// (paper §III-B). On a lossless run coverage is contiguous and
// non-overlapping; under fault injection the receiver additionally sheds
// duplicates (keeping the first copy of a parked segment), signals
// immediate duplicate ACKs for fast retransmit, and bounds the
// out-of-order queue with kernel-style pruning (tcp_prune_ofo_queue).
type TCPReceiver struct {
	// Expected is the next in-order segment sequence.
	Expected uint64
	// OOOQueueCost is charged per out-of-order insert and per drain on
	// the core handling the packet (the kernel's ofo-queue overhead).
	OOOQueueCost sim.Duration
	// Deliver receives in-order skbs (typically the socket stage).
	Deliver func(*skb.SKB)
	// DupAck, when set, is invoked with the current expected sequence
	// whenever a segment arrives that real TCP acknowledges immediately —
	// out-of-order or duplicate data. It is the receiver-side half of
	// fast retransmit; lossless runs leave it nil.
	DupAck func(expected uint64)
	// OFOCap bounds the out-of-order queue (skbs). When exceeded, the
	// highest-sequence parked skb is dropped, like the kernel pruning the
	// ofo queue under memory pressure; the sender retransmits it. Zero
	// means unbounded (the lossless-run default).
	OFOCap int
	// Recycle, if set, receives skbs the receiver discards (duplicates,
	// pruned out-of-order entries) so the run's pool can reuse them.
	Recycle func(*skb.SKB)
	// OnDeliverParked, if set, observes each parked skb as the OFO drain
	// releases it, together with the in-order arrival that filled the
	// hole — the blame for the parked skb's reorder-wait. Observation
	// only; nil in unprobed runs.
	OnDeliverParked func(parked, filler *skb.SKB)

	// OOOArrivals counts skbs that arrived ahead of sequence; OOOPeak is
	// the maximum depth the out-of-order queue reached.
	OOOArrivals uint64
	OOOPeak     int
	// DupSegments counts segments discarded as already-received
	// (spurious retransmissions and wire duplicates). OFOPruned counts
	// segments dropped by out-of-order queue pruning.
	DupSegments uint64
	OFOPruned   uint64

	ooo     map[uint64]*skb.SKB
	parked  []uint64 // Missing's scratch: parked sequences
	missing []uint64 // Missing's scratch: the returned hole map
}

// Rx processes one skb arriving at the TCP layer on core (charged for any
// out-of-order queue work).
func (r *TCPReceiver) Rx(s *skb.SKB, core *sim.Core) {
	if s.Seq < r.Expected {
		// Already covered (a retransmission that lost the race, or a wire
		// duplicate). Like a BSD-lineage stack we discard the whole skb
		// even on partial overlap — any genuinely new tail is still
		// unacknowledged at the sender, and the duplicate ACK below
		// steers its retransmission to exactly r.Expected.
		r.DupSegments += uint64(s.Segs)
		if r.DupAck != nil {
			r.DupAck(r.Expected)
		}
		if r.Recycle != nil {
			r.Recycle(s)
		}
		return
	}
	if s.Seq != r.Expected {
		// Ahead of sequence: park it.
		if r.ooo == nil {
			r.ooo = make(map[uint64]*skb.SKB)
		}
		if _, dup := r.ooo[s.Seq]; dup {
			// Same hole retransmitted twice: keep the first copy.
			r.DupSegments += uint64(s.Segs)
			if r.DupAck != nil {
				r.DupAck(r.Expected)
			}
			if r.Recycle != nil {
				r.Recycle(s)
			}
			return
		}
		r.OOOArrivals++
		r.ooo[s.Seq] = s
		if r.OFOCap > 0 && len(r.ooo) > r.OFOCap {
			r.pruneOFO()
		}
		if len(r.ooo) > r.OOOPeak {
			r.OOOPeak = len(r.ooo)
		}
		if r.OOOQueueCost > 0 && core != nil {
			core.Exec(r.OOOQueueCost, "tcp-ofo")
		}
		if r.DupAck != nil {
			r.DupAck(r.Expected)
		}
		return
	}
	r.Expected = s.EndSeq()
	r.Deliver(s)
	// Drain any now-contiguous parked skbs.
	for {
		next, ok := r.ooo[r.Expected]
		if !ok {
			break
		}
		delete(r.ooo, r.Expected)
		if r.OOOQueueCost > 0 && core != nil {
			core.Exec(r.OOOQueueCost, "tcp-ofo")
		}
		r.Expected = next.EndSeq()
		if r.OnDeliverParked != nil {
			r.OnDeliverParked(next, s)
		}
		r.Deliver(next)
	}
	// A drained GRO super-packet can straddle a parked skb's range,
	// leaving entries keyed below Expected; sweep them as duplicates.
	if len(r.ooo) > 0 {
		for seq, parked := range r.ooo {
			if seq < r.Expected {
				r.DupSegments += uint64(parked.Segs)
				delete(r.ooo, seq)
				if r.Recycle != nil {
					r.Recycle(parked)
				}
			}
		}
	}
	// Data still parked means the fill exposed the next hole: acknowledge
	// immediately so the sender learns the new missing sequence without
	// waiting for further out-of-order arrivals (NewReno's partial-ACK
	// signal, which lets recovery proceed one hole per round trip).
	if len(r.ooo) > 0 && r.DupAck != nil {
		r.DupAck(r.Expected)
	}
}

// Missing returns up to max missing segment sequences between Expected and
// the highest sequence parked in the out-of-order queue — the hole map a
// real receiver advertises in SACK blocks. The sender's recovery sweep uses
// it to retransmit every known hole in one round trip instead of
// discovering them serially. The result is receiver-owned scratch, valid
// only until the next Missing call; a warm call allocates nothing. Parked
// sequences are unique map keys, so their sorted order is deterministic.
func (r *TCPReceiver) Missing(max int) []uint64 {
	if len(r.ooo) == 0 || max <= 0 {
		return nil
	}
	r.parked = r.parked[:0]
	for seq := range r.ooo {
		r.parked = append(r.parked, seq)
	}
	slices.Sort(r.parked)
	r.missing = r.missing[:0]
	next := r.Expected
	for _, seq := range r.parked {
		for ; next < seq; next++ {
			r.missing = append(r.missing, next)
			if len(r.missing) >= max {
				return r.missing
			}
		}
		if end := r.ooo[seq].EndSeq(); end > next {
			next = end
		}
	}
	return r.missing
}

// pruneOFO drops the highest-sequence parked skb — the one furthest from
// being deliverable, whose retransmission costs the least extra wait.
func (r *TCPReceiver) pruneOFO() {
	var maxSeq uint64
	for seq := range r.ooo {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	pruned := r.ooo[maxSeq]
	r.OFOPruned += uint64(pruned.Segs)
	delete(r.ooo, maxSeq)
	if r.Recycle != nil {
		r.Recycle(pruned)
	}
}

// Pending returns the current out-of-order queue depth.
func (r *TCPReceiver) Pending() int { return len(r.ooo) }

// UDPReceiver is the connectionless counterpart: it delivers every datagram
// immediately (no ordering contract) but records how many arrived out of
// order — the "poor user experience" the paper attributes to UDP reordering.
type UDPReceiver struct {
	// Deliver receives every skb.
	Deliver func(*skb.SKB)
	// OOOArrivals counts skbs whose sequence is below one already seen.
	OOOArrivals uint64

	maxEnd uint64
}

// Rx processes one skb arriving at the UDP layer.
func (r *UDPReceiver) Rx(s *skb.SKB, _ *sim.Core) {
	if s.Seq < r.maxEnd {
		r.OOOArrivals++
	}
	if end := s.EndSeq(); end > r.maxEnd {
		r.maxEnd = end
	}
	r.Deliver(s)
}
