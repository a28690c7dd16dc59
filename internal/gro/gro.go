// Package gro implements generic receive offload: coalescing consecutive
// same-flow TCP segments of a NAPI poll batch into larger super-packets so
// that downstream per-packet stage costs are paid once per super-packet.
// Mirroring the kernel behaviour the paper leans on (§II footnote 2), GRO is
// effective for TCP but passes UDP through untouched — which is why
// device-level pipelining (FALCON) helps UDP yet fails to relieve TCP's
// skb-alloc+GRO core, and why MFLOW needs pre-skb IRQ splitting for TCP.
package gro

import "mflow/internal/skb"

// DefaultMaxBytes caps a GRO super-packet at 64 KB, like the kernel.
const DefaultMaxBytes = 65536

// GRO coalesces poll batches. The zero value is a disabled engine; use New.
type GRO struct {
	// MaxBytes caps the payload a single super-packet may accumulate.
	MaxBytes int
	// Enabled turns coalescing on. Disabled, Coalesce is the identity.
	Enabled bool

	// SegsIn counts wire segments offered; SkbsOut counts skbs emitted.
	// SegsIn/SkbsOut is the achieved amortization factor.
	SegsIn  uint64
	SkbsOut uint64

	// Recycle, if set, receives each skb absorbed into a super-packet
	// (its coverage lives on in the merge head) so the run's pool can
	// reuse it.
	Recycle func(*skb.SKB)

	// heads is the per-batch in-progress super-packet table, reused
	// across Coalesce calls so the steady state allocates nothing. Flow
	// counts per poll batch are small, so a linear scan beats a map.
	heads []flowHead
}

// flowHead pairs a flow with its current merge head within one batch.
type flowHead struct {
	flow uint64
	s    *skb.SKB
}

// New returns an enabled GRO engine with the default byte cap.
func New() *GRO {
	return &GRO{MaxBytes: DefaultMaxBytes, Enabled: true}
}

// Coalesce merges the batch, preserving first-arrival order of the emitted
// skbs. Only in-order continuations merge (skb.CanMerge): same flow, TCP,
// same encapsulation state, no message boundary in between, and within the
// byte cap. Like kernel GRO, the engine holds state only within one batch —
// everything flushes when the poll round ends.
//
// A merge is copy-free: skb.Merge chains the absorbed segment's byte
// window onto the head as a frag reference (the kernel's frag-list shape),
// so a wire-mode super-packet is one head frame plus N chained frames, and
// only the terminal reader ever walks or materializes the stream.
func (g *GRO) Coalesce(batch []*skb.SKB) []*skb.SKB {
	for _, s := range batch {
		g.SegsIn += uint64(s.Segs)
	}
	if !g.Enabled || len(batch) <= 1 {
		g.SkbsOut += uint64(len(batch))
		return batch
	}
	max := g.MaxBytes
	if max <= 0 {
		max = DefaultMaxBytes
	}
	out := batch[:0]
	heads := g.heads[:0] // per-flow in-progress super-packet, capacity reused
	for _, s := range batch {
		hi := -1
		for i := range heads {
			if heads[i].flow == s.FlowID {
				hi = i
				break
			}
		}
		if hi >= 0 {
			if h := heads[hi].s; h.CanMerge(s) && h.PayloadLen+s.PayloadLen <= max {
				h.Merge(s)
				if g.Recycle != nil {
					g.Recycle(s)
				}
				continue
			}
		}
		out = append(out, s)
		if hi >= 0 {
			heads[hi].s = s
		} else {
			heads = append(heads, flowHead{flow: s.FlowID, s: s})
		}
	}
	for i := range heads {
		heads[i].s = nil // don't pin emitted skbs past the batch
	}
	g.heads = heads[:0]
	g.SkbsOut += uint64(len(out))
	return out
}
