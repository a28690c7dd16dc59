package core

import (
	"mflow/internal/sim"
)

// Detector classifies flows as elephants or mice from their observed
// arrival rate. The paper splits "any identified (elephant) flow"
// (§III-A); this is the identification: per-flow byte counting over fixed
// windows, an EWMA of the windowed rate, and promotion/demotion with
// hysteresis so a flow hovering at the threshold does not flap between
// split and unsplit processing.
type Detector struct {
	// ThresholdBps promotes a flow to elephant when its EWMA rate
	// exceeds it (default 1 Gbps); demotion happens below half of it.
	ThresholdBps float64
	// Window is the rate-measurement window (default 1 ms).
	Window sim.Duration
	// Alpha is the EWMA weight of the newest window (default 0.5).
	Alpha float64

	// Promotions / Demotions count classification changes.
	Promotions uint64
	Demotions  uint64

	flows map[uint64]*flowStat
}

type flowStat struct {
	windowStart sim.Time
	windowBytes uint64
	rateBps     float64
	elephant    bool
	sawWindow   bool
}

// DefaultThresholdBps is the elephant promotion threshold NewDetector
// uses: 1 Gbps.
const DefaultThresholdBps = 1e9

// NewDetector returns a detector with the default policy.
func NewDetector() *Detector {
	return &Detector{
		ThresholdBps: DefaultThresholdBps,
		Window:       sim.Millisecond,
		Alpha:        0.5,
	}
}

func (d *Detector) stat(flowID uint64) *flowStat {
	if d.flows == nil {
		d.flows = make(map[uint64]*flowStat)
	}
	st := d.flows[flowID]
	if st == nil {
		st = &flowStat{}
		d.flows[flowID] = st
	}
	return st
}

// Observe records bytes of a flow arriving at the given instant, rolling
// the measurement window and updating the classification as needed.
func (d *Detector) Observe(flowID uint64, bytes int, now sim.Time) {
	st := d.stat(flowID)
	win := d.Window
	if win <= 0 {
		win = sim.Millisecond
	}
	for now.Sub(st.windowStart) >= win {
		// Close the current window into the EWMA (empty elapsed
		// windows decay the rate toward zero).
		rate := float64(st.windowBytes) * 8 / win.Seconds()
		alpha := d.Alpha
		if alpha <= 0 || alpha > 1 {
			alpha = 0.5
		}
		if !st.sawWindow {
			st.rateBps = rate
			st.sawWindow = true
		} else {
			st.rateBps = alpha*rate + (1-alpha)*st.rateBps
		}
		st.windowBytes = 0
		st.windowStart = st.windowStart.Add(win)
		if now.Sub(st.windowStart) >= 100*win {
			// Long idle gap: jump rather than looping per window.
			st.windowStart = now
			st.rateBps = 0
		}
		d.reclassify(st)
	}
	st.windowBytes += uint64(bytes)
}

func (d *Detector) reclassify(st *flowStat) {
	thr := d.ThresholdBps
	if thr <= 0 {
		thr = 1e9
	}
	switch {
	case !st.elephant && st.rateBps > thr:
		st.elephant = true
		d.Promotions++
	case st.elephant && st.rateBps < thr/2:
		st.elephant = false
		d.Demotions++
	}
}

// IsElephant reports the flow's current classification.
func (d *Detector) IsElephant(flowID uint64) bool {
	if d.flows == nil {
		return false
	}
	st := d.flows[flowID]
	return st != nil && st.elephant
}
