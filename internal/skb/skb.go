// Package skb models the kernel's socket buffer — the unit of work that
// travels through every stage of the simulated network stack, mirroring
// struct sk_buff. An SKB describes one on-wire segment (or, after GRO,
// a run of merged consecutive segments). MFLOW's splitter stamps each SKB
// with a micro-flow identifier, exactly as the kernel patch stores the ID
// in the skb data structure (paper §III-B, footnote 5).
package skb

import (
	"fmt"
	"strings"

	"mflow/internal/sim"
)

// Proto is the transport protocol of the flow an SKB belongs to.
type Proto int

// Transport protocols used in the experiments.
const (
	TCP Proto = iota
	UDP
)

// String names the protocol.
func (p Proto) String() string {
	if p == TCP {
		return "TCP"
	}
	return "UDP"
}

// ParseProto parses a transport name, case-insensitively: tcp or udp.
func ParseProto(name string) (Proto, error) {
	switch strings.ToLower(name) {
	case "tcp":
		return TCP, nil
	case "udp":
		return UDP, nil
	}
	return 0, fmt.Errorf("skb: unknown proto %q (want tcp or udp)", name)
}

// SKB is one unit of packet-processing work. Before GRO it represents a
// single MTU-sized wire segment; after GRO it may represent several merged
// consecutive segments of the same flow (Segs > 1).
type SKB struct {
	// FlowID identifies the transport flow (5-tuple surrogate).
	FlowID uint64
	// Proto is the flow's transport protocol.
	Proto Proto

	// Seq is this segment's position in the flow's NIC arrival order,
	// counted in segments. After GRO the SKB covers [Seq, Seq+Segs).
	Seq uint64
	// Segs is the number of wire segments this SKB covers (>= 1).
	Segs int

	// WireLen is the total on-the-wire bytes covered, including all
	// headers (outer encapsulation too while Encap is true).
	WireLen int
	// PayloadLen is the application payload bytes covered.
	PayloadLen int
	// Encap reports whether the segment still carries the outer
	// VxLAN/UDP/IP/Ethernet headers (cleared by decapsulation).
	Encap bool

	// MsgID is the application message the segment belongs to, and
	// MsgEnd marks the final segment of that message (used to clock
	// request/response workloads and per-message latency).
	MsgID  uint64
	MsgEnd bool

	// MicroFlow is the micro-flow identifier assigned by MFLOW's
	// splitter: Seq/batchSize + 1. Zero means "not split". Branch is the
	// splitting-queue index the micro-flow was routed to (meaningful
	// when MicroFlow != 0).
	MicroFlow uint64
	Branch    int

	// PktID is the monotonic per-NIC arrival identifier, stamped when the
	// NIC accepts the frame. Unlike the SKB pointer (which skb.Pool reuse
	// aliases) or Seq (which a retransmission repeats), PktID is unique per
	// physical arrival for the lifetime of a run; 0 means "never arrived".
	// Journeys and causal attribution key on it.
	PktID uint64

	// SentAt is when the sender created the segment; ArrivedAt is when
	// the NIC received it. Latency is measured delivery-minus-SentAt.
	SentAt    sim.Time
	ArrivedAt sim.Time

	// LastStage / LastStageAt record the pipeline stage that last emitted
	// this skb and when — the provenance the observability layer uses to
	// attribute inter-stage queueing delay (stage_gap{from,to}). Empty/zero
	// unless a run has a registry attached.
	LastStage   string
	LastStageAt sim.Time

	// QueuedAt is when the skb last entered a backlog or splitting queue;
	// the CoDel-style AQM (internal/overload) measures queue sojourn as
	// dequeue-time minus QueuedAt. Zero unless overload control is wired.
	QueuedAt sim.Time

	// MemCharge / Accounted are the global skb memory account's stamp
	// (internal/overload): the bytes charged at NIC admission and whether
	// the charge is still outstanding. Release balances against MemCharge,
	// not WireLen, so GRO growth after admission cannot skew the account.
	MemCharge int
	Accounted bool

	// Data optionally holds the real wire bytes (nil in synthetic runs;
	// populated in wire-mode runs and correctness tests). When built via
	// Reserve/Push/Put it is a window into the SKB's pooled arena (see
	// arena.go); assigning a foreign slice directly also works, at the
	// cost of zero headroom until the first Push adopts it.
	Data []byte

	// buf is the backing arena Data windows into, off the window's start
	// offset within it (invariant: Data == buf[off:off+len(Data)] whenever
	// buf != nil). frags chains whole windows absorbed by GRO merges,
	// kernel frag-list style. All three are pool-managed capacity, not
	// logical state: Pool.Get hands them back zero-length but warm.
	buf   []byte
	off   int
	frags []frag

	// CP is the causal profiler's per-packet attribution record (nil
	// unless a run is probed). Declared as any to keep skb free of an
	// internal/causal dependency; only the profiler reads or writes it.
	CP any
}

// String summarizes the SKB for diagnostics.
func (s *SKB) String() string {
	return fmt.Sprintf("skb{flow=%d seq=%d segs=%d bytes=%d mf=%d}",
		s.FlowID, s.Seq, s.Segs, s.WireLen, s.MicroFlow)
}

// EndSeq returns the first segment sequence after this SKB's coverage.
func (s *SKB) EndSeq() uint64 { return s.Seq + uint64(s.Segs) }

// CanMerge reports whether other directly continues s within the same flow
// and message framing, i.e. GRO may coalesce them.
func (s *SKB) CanMerge(other *SKB) bool {
	return s.FlowID == other.FlowID &&
		s.Proto == TCP && other.Proto == TCP &&
		s.Encap == other.Encap &&
		!s.MsgEnd &&
		other.Seq == s.EndSeq()
}

// Merge absorbs other (which must satisfy CanMerge) into s, extending its
// coverage the way GRO grows a super-packet. Bytes are never copied:
// other's window (and any chain it already carries) is chained onto s as
// frag references, arenas included, and other is left byte-less so its
// Put cannot reclaim what s now owns. The merged stream is read via
// Parts/Bytes.
func (s *SKB) Merge(other *SKB) {
	s.Segs += other.Segs
	s.WireLen += other.WireLen
	s.PayloadLen += other.PayloadLen
	s.MsgID = other.MsgID
	s.MsgEnd = other.MsgEnd
	if other.Data != nil {
		if s.Data == nil && len(s.frags) == 0 {
			// Byte-less head: take over other's window outright.
			s.buf, s.off, s.Data = other.buf, other.off, other.Data
		} else {
			s.frags = append(s.frags, frag{view: other.Data, arena: other.buf})
		}
		other.buf, other.off, other.Data = nil, 0, nil
	}
	if len(other.frags) > 0 {
		s.frags = append(s.frags, other.frags...)
		for i := range other.frags {
			other.frags[i] = frag{}
		}
		other.frags = other.frags[:0]
	}
}

// Pool recycles SKBs to keep large simulations allocation-light. The
// simulator is single-goroutine per run, so a plain freelist suffices; a
// Pool must never be shared across Schedulers (one pool per simulated run),
// which preserves both determinism and race-freedom.
//
// Ownership rules (see DESIGN.md §8): exactly one component owns an SKB at a
// time, and only the owner at a terminal point — final socket delivery, a
// drop at an admission queue, a GRO merge that absorbs the segment, or a
// failed Deliver — may Put it back. A missed Put merely costs a pool miss;
// a double Put corrupts the freelist, so when in doubt the skb leaks to the
// garbage collector instead.
//
// All methods tolerate a nil receiver (Get falls back to plain allocation),
// so pooling can be disabled wholesale by wiring no pool at all.
type Pool struct {
	free []*SKB
	// arenas holds backing arrays reclaimed from frag chains on Put:
	// GRO strips an absorbed SKB of its arena, so Get re-arms
	// arena-less SKBs from this list to keep the steady state
	// allocation-free.
	arenas [][]byte
	// Allocs counts pool misses (fresh allocations).
	Allocs uint64
	// Puts counts SKBs returned for reuse.
	Puts uint64
}

// Get returns a logically zeroed SKB, reusing a recycled one when
// available. Buffer capacity is retained across reuse: the arena (and the
// frag chain's slice capacity) come back warm but empty — Data is nil,
// headroom/tailroom unclaimed — so wire-mode steady state allocates
// nothing.
func (p *Pool) Get() *SKB {
	if p == nil {
		return &SKB{}
	}
	var s *SKB
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
		buf, frags := s.buf, s.frags[:0]
		*s = SKB{}
		s.buf, s.frags = buf, frags
	} else {
		p.Allocs++
		s = &SKB{}
	}
	// Arm an arena-less SKB — a miss too — from the reclaimed reserve,
	// so a spare arena is reused before Reserve allocates a fresh one.
	if m := len(p.arenas); m > 0 && s.buf == nil {
		s.buf = p.arenas[m-1]
		p.arenas[m-1] = nil
		p.arenas = p.arenas[:m-1]
	}
	return s
}

// Put returns an SKB to the pool. The caller must not retain it. In -race
// (or skbdebug-tagged) builds the SKB's fields are poisoned — including
// every byte of its arena and of each chained arena — so any stale
// reference that survives Put reads obviously-wrong values instead of
// plausible stale ones. Chained arenas are reclaimed for reuse; chained
// views are dropped.
func (p *Pool) Put(s *SKB) {
	if p == nil || s == nil {
		return
	}
	for i := range s.frags {
		if a := s.frags[i].arena; a != nil {
			poisonArena(a)
			p.arenas = append(p.arenas, a)
		}
		s.frags[i] = frag{}
	}
	s.frags = s.frags[:0]
	poison(s)
	s.Data = nil
	s.off = 0
	s.CP = nil
	p.Puts++
	p.free = append(p.free, s)
}

// Free returns the number of SKBs currently available for reuse.
func (p *Pool) Free() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
