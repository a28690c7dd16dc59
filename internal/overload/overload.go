// Package overload implements deterministic overload control and
// self-healing for the simulated receive path, mirroring the kernel
// mechanisms production stacks survive saturation with:
//
//   - Global skb memory accounting (net.core.rmem / tcp_mem shape): a
//     per-host bytes+count budget charged at NIC admission and released at
//     socket delivery or drop, with pressure thresholds that shrink the
//     effective NAPI budget and gate backlog/splitting-queue admission.
//   - CoDel-style AQM on backlog and splitting queues: packets whose
//     queue sojourn stays above a target for a full interval are dropped,
//     with the classic sqrt control law pacing subsequent drops.
//   - Receive-livelock mitigation (Mogul & Ramakrishnan): when softirq
//     occupancy on the NIC-serving cores exceeds a threshold over a
//     sampling window, IRQs are masked and the driver runs in budgeted
//     polling mode, so useful work keeps getting cycles.
//   - Reassembler graceful degradation and a stall watchdog live in the
//     overlay wiring (internal/overlay/overload.go) and use this package's
//     configuration.
//
// Everything is pure simulated time and seeded state — runs are
// deterministic — and the whole subsystem is probe-pure: a nil or zero
// Config leaves a run bit-for-bit identical to one without the subsystem
// (Scenario.Key unchanged, BenchmarkOverloadOff pins the disabled path at
// zero allocations).
package overload

import (
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Config selects and parameterizes the overload-control mechanisms. The
// zero value disables everything (Enabled reports false), keeping scenario
// keys and fingerprints byte-identical to pre-overload runs.
type Config struct {
	// MemBytes / MemSKBs bound the global skb memory charged at NIC
	// admission (0 = unaccounted). Frames that would exceed either budget
	// are dropped at admission, before the descriptor ring.
	MemBytes int
	MemSKBs  int
	// PressureLow / PressureHigh are fractions of the memory budget at
	// which the host enters pressure level 1 (NAPI budgets halve) and
	// level 2 (budgets floor at MinBudget and backlog admission gates
	// close). Defaults 0.5 / 0.9.
	PressureLow  float64
	PressureHigh float64
	// MinBudget is the floor the NAPI budget shrinks to under critical
	// pressure (default 8).
	MinBudget int

	// CoDelTarget / CoDelInterval parameterize the AQM on backlog and
	// splitting queues: a queue whose head sojourn exceeds Target for a
	// full Interval enters drop state (0 disables the AQM).
	CoDelTarget   sim.Duration
	CoDelInterval sim.Duration

	// IRQPerFrame switches the NIC to interrupt-per-frame delivery (no
	// NAPI moderation) — the regime in which receive livelock occurs: the
	// IRQ cost is charged for every offered frame, accepted or not.
	IRQPerFrame bool
	// Polling enables livelock mitigation: when softirq occupancy on a
	// NIC-serving core exceeds SoftirqThreshold over a sampling window,
	// IRQs are masked and the driver polls on its own schedule; IRQs
	// unmask once occupancy falls below half the threshold.
	Polling bool
	// SoftirqThreshold is the occupancy fraction that trips polling mode
	// (default 0.85).
	SoftirqThreshold float64

	// ReasmBudget bounds the batch reassembler's parked skbs: above it the
	// flow's splitting degree collapses to 1 (pass-through ≈ RPS) and the
	// reassembler force-releases its frontier at 2× the budget; parallelism
	// restores once buffering falls below half the budget. 0 disables.
	ReasmBudget int
	// OFOBudget caps the TCP receiver's out-of-order queue (0 keeps the
	// fault plan's cap, if any).
	OFOBudget int

	// WatchdogStall is the forward-progress horizon: a splitting branch
	// whose core is booked further than this into the future is declared
	// stalled and its pending micro-flows re-steer to the healthiest
	// branch. 0 disables the watchdog.
	WatchdogStall sim.Duration

	// Tick is the manager's sampling period for pressure, occupancy,
	// degradation and watchdog checks (default 50µs).
	Tick sim.Duration
}

// Enabled reports whether any overload mechanism is configured. A nil or
// zero config wires nothing.
func (c *Config) Enabled() bool {
	return c != nil && *c != Config{}
}

// Normalized returns the config with defaults applied to every field a
// configured mechanism depends on.
func (c Config) Normalized() Config {
	if c.Tick <= 0 {
		c.Tick = 50 * sim.Microsecond
	}
	if c.PressureLow <= 0 {
		c.PressureLow = 0.5
	}
	if c.PressureHigh <= 0 {
		c.PressureHigh = 0.9
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 8
	}
	if c.CoDelTarget > 0 && c.CoDelInterval <= 0 {
		c.CoDelInterval = 10 * c.CoDelTarget
	}
	if c.SoftirqThreshold <= 0 {
		c.SoftirqThreshold = 0.85
	}
	return c
}

// Profiles returns the named overload configurations the bench matrix and
// the -overload command-line flag use. Two profiles keep the matrix
// affordable: "pressure" exercises budgets + AQM + degradation + watchdog,
// "livelock" the interrupt-per-frame regime with polling-mode mitigation.
func Profiles() map[string]*Config {
	return map[string]*Config{
		"pressure": {
			MemBytes:      2 << 20,
			MemSKBs:       4096,
			CoDelTarget:   100 * sim.Microsecond,
			CoDelInterval: sim.Millisecond,
			ReasmBudget:   512,
			OFOBudget:     512,
			WatchdogStall: 300 * sim.Microsecond,
		},
		"livelock": {
			IRQPerFrame: true,
			Polling:     true,
		},
	}
}

// LivelockConfig returns the livelock-figure configuration: interrupt-
// per-frame delivery, with or without polling-mode mitigation.
func LivelockConfig(mitigated bool) *Config {
	return &Config{IRQPerFrame: true, Polling: mitigated}
}

// Accountant is the global skb memory account (tcp_mem shape): bytes and
// skb count charged at NIC admission, released at socket delivery or any
// drop. All methods tolerate a nil receiver, so the disabled path costs a
// nil check and nothing else.
type Accountant struct {
	// MemBytes / MemSKBs are the budgets (0 = that dimension unbounded).
	MemBytes int
	MemSKBs  int
	// PressureLow / PressureHigh are the level-1 / level-2 thresholds as
	// fractions of the tighter budget.
	PressureLow  float64
	PressureHigh float64

	bytes int
	skbs  int

	// Charged / Released count admissions and releases; AdmissionDropped
	// counts frames rejected because a budget was exhausted. PeakBytes /
	// PeakSKBs track high-water marks.
	Charged          uint64
	Released         uint64
	AdmissionDropped uint64
	PeakBytes        int
	PeakSKBs         int
}

// NewAccountant builds an accountant from a normalized config.
func NewAccountant(cfg Config) *Accountant {
	return &Accountant{
		MemBytes:     cfg.MemBytes,
		MemSKBs:      cfg.MemSKBs,
		PressureLow:  cfg.PressureLow,
		PressureHigh: cfg.PressureHigh,
	}
}

// Admit charges s against the budget, stamping the skb with its charge so
// Release can balance the account exactly even after GRO grows the skb's
// WireLen. It reports false — and counts an admission drop — when either
// budget would be exceeded.
func (a *Accountant) Admit(s *skb.SKB) bool {
	if a == nil {
		return true
	}
	if (a.MemBytes > 0 && a.bytes+s.WireLen > a.MemBytes) ||
		(a.MemSKBs > 0 && a.skbs+1 > a.MemSKBs) {
		a.AdmissionDropped++
		return false
	}
	a.bytes += s.WireLen
	a.skbs++
	a.Charged++
	if a.bytes > a.PeakBytes {
		a.PeakBytes = a.bytes
	}
	if a.skbs > a.PeakSKBs {
		a.PeakSKBs = a.skbs
	}
	s.MemCharge = s.WireLen
	s.Accounted = true
	return true
}

// Release returns s's charge to the budget. Unaccounted skbs (never
// admitted, or already released) are ignored, so every terminal point can
// call it unconditionally.
func (a *Accountant) Release(s *skb.SKB) {
	if a == nil || s == nil || !s.Accounted {
		return
	}
	a.bytes -= s.MemCharge
	a.skbs--
	a.Released++
	s.Accounted = false
	s.MemCharge = 0
}

// Usage returns the fraction of the tighter configured budget in use
// (0 when nothing is bounded).
func (a *Accountant) Usage() float64 {
	if a == nil {
		return 0
	}
	u := 0.0
	if a.MemBytes > 0 {
		u = float64(a.bytes) / float64(a.MemBytes)
	}
	if a.MemSKBs > 0 {
		if su := float64(a.skbs) / float64(a.MemSKBs); su > u {
			u = su
		}
	}
	return u
}

// Pressure levels.
const (
	PressureNone     = 0 // below PressureLow
	PressureModerate = 1 // NAPI budgets halve
	PressureCritical = 2 // budgets floor, backlog admission gates close
)

// Pressure maps current usage onto a pressure level.
func (a *Accountant) Pressure() int {
	if a == nil {
		return PressureNone
	}
	switch u := a.Usage(); {
	case u >= a.PressureHigh:
		return PressureCritical
	case u >= a.PressureLow:
		return PressureModerate
	default:
		return PressureNone
	}
}
