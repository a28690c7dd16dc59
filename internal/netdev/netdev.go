// Package netdev implements the software network devices that make up a
// container overlay network data path: the VxLAN tunnel device
// (encapsulation/decapsulation) and the learning Linux bridge; a veth pair
// crossing is a cost-only Device.
// Each device couples a semantic action (what happens to the packet) with a
// cost model (how long the softirq stage takes), so correctness is testable
// on real state/bytes while performance emerges from the simulation.
package netdev

import (
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Cost models one stage's processing time for an skb:
//
//	PerSKB + PerSeg×segments + PerByte×bytes
//
// PerSKB is paid once per skb and is therefore amortized by GRO merging;
// PerSeg scales with the original wire-segment count regardless of merging;
// PerByte captures data-touching work (checksums, copies) that no batching
// can amortize. The distinction is load-bearing: it is why GRO rescues TCP's
// per-packet costs but the VxLAN device stays expensive (paper §II).
type Cost struct {
	PerSKB  sim.Duration
	PerSeg  sim.Duration
	PerByte float64 // nanoseconds per byte
}

// Add returns the component-wise sum of two cost models (used when one
// execution context performs several stages' work, e.g. MFLOW's delivery
// thread doing TCP processing plus the user-space copy).
func (c Cost) Add(o Cost) Cost {
	return Cost{
		PerSKB:  c.PerSKB + o.PerSKB,
		PerSeg:  c.PerSeg + o.PerSeg,
		PerByte: c.PerByte + o.PerByte,
	}
}

// Of returns the cost of processing s.
func (c Cost) Of(s *skb.SKB) sim.Duration {
	d := c.PerSKB + c.PerSeg*sim.Duration(s.Segs)
	if c.PerByte != 0 {
		d += sim.Duration(c.PerByte * float64(s.WireLen))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Device is a named software network device: a semantic action with a cost.
type Device struct {
	// Name tags CPU accounting for this device's softirq.
	Name string
	// Cost is the device's processing cost model.
	Cost Cost
	// Action optionally transforms the skb (decap, header rewrite, ...).
	Action func(*skb.SKB)

	// SKBs / Segs / Bytes count the traffic this device instance has
	// processed (per Apply call); the observability layer aggregates them
	// across instances into device_* counters.
	SKBs  uint64
	Segs  uint64
	Bytes uint64
}

// CostOf returns the device's cost for s.
func (d *Device) CostOf(s *skb.SKB) sim.Duration { return d.Cost.Of(s) }

// Apply runs the device's semantic action on s.
func (d *Device) Apply(s *skb.SKB) {
	d.SKBs++
	d.Segs += uint64(s.Segs)
	d.Bytes += uint64(s.WireLen)
	if d.Action != nil {
		d.Action(s)
	}
}
