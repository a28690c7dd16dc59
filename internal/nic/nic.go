// Package nic models the physical network interface controller and its
// driver, after the Mellanox ConnectX-5 / mlx5 driver used in the paper's
// testbed: per-queue descriptor rings filled by DMA, hardware interrupts
// that arm NAPI polling, receive-side scaling (RSS) that hashes flows onto
// queues/cores, and the driver request queue that MFLOW's IRQ-splitting
// function taps into before skbs exist.
package nic

import (
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Config describes the NIC hardware.
type Config struct {
	// Queues is the number of hardware RX queues (RSS spreads flows
	// across them; a single flow always lands on one queue).
	Queues int
	// RingSize bounds each queue's descriptor ring; arrivals beyond it
	// are dropped on the floor, exactly like ring-buffer overrun.
	RingSize int
	// IRQCost is charged to the handling core each time a hardware
	// interrupt fires (ring transitions empty→non-empty with NAPI idle).
	IRQCost sim.Duration
	// IRQDelay is the latency between frame arrival and the interrupt
	// handler running.
	IRQDelay sim.Duration
	// IRQCoalesce keeps NAPI armed after the ring drains, so closely
	// spaced bursts do not pay one interrupt each (rx-usecs moderation).
	IRQCoalesce sim.Duration
}

// DefaultConfig mirrors the testbed NIC at the fidelity the experiments
// need: enough queues for RSS to matter, a 1024-descriptor ring.
func DefaultConfig() Config {
	return Config{
		Queues:      8,
		RingSize:    4096,
		IRQCost:     1500,
		IRQDelay:    800,
		IRQCoalesce: 15 * sim.Microsecond,
	}
}

// NIC is a receive-side physical NIC. Arriving frames are hashed onto a
// queue; each queue drains through a driver worker (the first softirq)
// installed by the topology builder.
type NIC struct {
	cfg     Config
	sched   *sim.Scheduler
	drivers []*sim.Worker[*skb.SKB]

	pins map[uint64]int

	// PktSeq issues skb.PktID: a monotonic arrival counter covering every
	// frame the NIC looks at (including ones the ring then drops), so ids
	// are unique but not dense. New gives each NIC its own; multi-host
	// fabric runs point every host's NIC at one counter so PktIDs stay
	// unique run-wide (the causal profiler and the flight recorder key
	// records on them).
	PktSeq *uint64

	// OnDrop, when set, observes frames rejected by a full descriptor ring
	// (after PktID/ArrivedAt are stamped). Used by the causal profiler and
	// the anomaly flight recorder; nil in unprobed runs.
	OnDrop func(*skb.SKB)

	// Admit, when set, is the overload subsystem's memory-accounting gate:
	// it is consulted after PktID/ArrivedAt are stamped and before the ring
	// enqueue. Returning false drops the frame at admission (counted in
	// AdmissionDropped, distinct from ring overrun in Dropped) — the
	// simulator's net.core.rmem / tcp_mem budget check. Nil admits all.
	Admit func(*skb.SKB) bool

	// PerFrameIRQ switches the NIC to interrupt-per-frame delivery: the IRQ
	// cost is charged for EVERY offered frame (accepted or not) instead of
	// only on idle→busy ring transitions — the pre-NAPI regime in which
	// receive livelock occurs (Mogul & Ramakrishnan). MaskIRQs suppresses
	// the charge while the driver runs in polling mode.
	PerFrameIRQ bool
	irqMasked   bool

	// Received counts frames accepted into a ring; Dropped counts ring
	// overruns; IRQs counts hardware interrupts raised. Offered counts every
	// frame presented to the NIC and AdmissionDropped those the Admit gate
	// rejected, so Offered == Received + Dropped + AdmissionDropped always
	// holds (drop-accounting conservation; asserted in the chaos matrix).
	Received         uint64
	Dropped          uint64
	IRQs             uint64
	Offered          uint64
	AdmissionDropped uint64
}

// MaskIRQs enables or disables interrupt masking: while masked no IRQ cost
// is charged and no IRQ counted — the driver is expected to poll on its own
// schedule (worker kicks still schedule poll rounds, which is exactly
// budgeted polling mode).
func (n *NIC) MaskIRQs(masked bool) { n.irqMasked = masked }

// PinFlow steers a flow to a fixed queue, overriding the RSS hash — the
// simulator's equivalent of an ethtool n-tuple steering rule, used by the
// experiment topologies for deterministic placement.
func (n *NIC) PinFlow(flowID uint64, queue int) {
	if n.pins == nil {
		n.pins = make(map[uint64]int)
	}
	n.pins[flowID] = queue
}

// New returns a NIC with cfg; driver workers are attached per queue with
// AttachDriver before traffic starts.
func New(cfg Config, sched *sim.Scheduler) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	return &NIC{
		cfg:     cfg,
		sched:   sched,
		drivers: make([]*sim.Worker[*skb.SKB], cfg.Queues),
		PktSeq:  new(uint64),
	}
}

// Config returns the NIC's configuration.
func (n *NIC) Config() Config { return n.cfg }

// AttachDriver installs the driver softirq worker for queue q. The worker's
// queue IS the descriptor ring: the NIC enforces RingSize through it.
func (n *NIC) AttachDriver(q int, w *sim.Worker[*skb.SKB]) {
	w.Cap = n.cfg.RingSize
	w.WakeDelay = n.cfg.IRQDelay
	w.IdleGrace = n.cfg.IRQCoalesce
	n.drivers[q] = w
}

// Driver returns the worker attached to queue q.
func (n *NIC) Driver(q int) *sim.Worker[*skb.SKB] { return n.drivers[q] }

// QueueFor returns the RX queue an arriving frame of the given flow hashes
// to. All frames of one flow map to one queue — RSS achieves inter-flow
// parallelism only, which is precisely the limitation MFLOW addresses.
func (n *NIC) QueueFor(flowID uint64) int {
	if q, ok := n.pins[flowID]; ok {
		return q
	}
	return int(Hash64(flowID) % uint64(n.cfg.Queues))
}

// Deliver places an arriving frame into its queue's ring, raising an IRQ if
// NAPI was idle. It reports whether the frame was accepted.
//
// The skb travels by reference from here on: the ring, the softirq stages
// and the socket all pass the same *skb.SKB, and any wire bytes it carries
// stay in the arena the sender wrote them into. Nothing on the device path
// may copy Data — header changes are Push/Pull pointer moves and GRO
// merges chain frag references (see internal/skb).
func (n *NIC) Deliver(s *skb.SKB) bool {
	n.Offered++
	q := n.QueueFor(s.FlowID)
	w := n.drivers[q]
	if w == nil {
		n.Dropped++
		return false
	}
	s.ArrivedAt = n.sched.Now()
	*n.PktSeq++
	s.PktID = *n.PktSeq
	if n.PerFrameIRQ && !n.irqMasked {
		// Interrupt-per-frame: the top half runs for every arrival before
		// the frame even reaches the ring — dropped frames still cost their
		// interrupt, which is the livelock mechanism.
		n.IRQs++
		if n.cfg.IRQCost > 0 {
			w.Core.Exec(n.cfg.IRQCost, "irq")
		}
	}
	if n.Admit != nil && !n.Admit(s) {
		n.AdmissionDropped++
		if n.OnDrop != nil {
			n.OnDrop(s)
		}
		return false
	}
	wasIdle := w.Idle()
	if !w.Enqueue(s) {
		n.Dropped++
		if n.OnDrop != nil {
			n.OnDrop(s)
		}
		return false
	}
	n.Received++
	if wasIdle && !n.PerFrameIRQ && !n.irqMasked {
		// The IRQ top half runs on the queue's core; NAPI (the worker
		// poll) follows after IRQDelay, which Worker already applies.
		n.IRQs++
		if n.cfg.IRQCost > 0 {
			w.Core.Exec(n.cfg.IRQCost, "irq")
		}
	}
	return true
}

// Hash64 is a 64-bit finalizer-style hash (splitmix64 mix), the simulator's
// stand-in for the NIC's Toeplitz RSS hash.
func Hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CompletionBatcher models the driver-update contention point the paper's
// IRQ-splitting function mitigates: after a request's skb is created the
// driver must be told the descriptor can be reused. MFLOW batches these
// updates (default every 128 requests) to avoid cross-core contention.
type CompletionBatcher struct {
	// Every is the batching factor (number of requests per update).
	Every int
	// UpdateCost is the cost of one driver update, charged to the core
	// performing the update.
	UpdateCost sim.Duration
	count      int
	// Updates counts driver updates performed.
	Updates uint64
}

// Completed records one consumed request on core, charging an update when
// the batch fills.
func (c *CompletionBatcher) Completed(core *sim.Core) {
	every := c.Every
	if every <= 0 {
		every = 128
	}
	c.count++
	if c.count >= every {
		c.count = 0
		c.Updates++
		if c.UpdateCost > 0 {
			core.Exec(c.UpdateCost, "drv-update")
		}
	}
}
