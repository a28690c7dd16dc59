package metrics

import (
	"fmt"
	"sort"

	"mflow/internal/sim"
)

// CPUSample is one core's utilization over a measurement window, broken down
// by accounting tag (softirq/device name).
type CPUSample struct {
	Core  int
	Total float64            // fraction of the window the core was busy
	ByTag map[string]float64 // per-tag fractions, summing to ~Total
}

// SnapshotCPU computes per-core utilization over [since, until] given the
// per-core busy totals captured at the window start.
func SnapshotCPU(cores []*sim.Core, busyAtSince []sim.Duration, tagsAtSince []map[string]sim.Duration, since, until sim.Time) []CPUSample {
	out := make([]CPUSample, len(cores))
	win := float64(until.Sub(since))
	for i, c := range cores {
		s := CPUSample{Core: c.ID, ByTag: map[string]float64{}}
		if win > 0 {
			s.Total = c.Utilization(busyAtSince[i], since, until)
			for tag, d := range c.BusyByTag() {
				var base sim.Duration
				if tagsAtSince != nil && tagsAtSince[i] != nil {
					base = tagsAtSince[i][tag]
				}
				if f := float64(d-base) / win; f > 1e-9 {
					s.ByTag[tag] = f
				}
			}
		}
		out[i] = s
	}
	return out
}

// CaptureBusy snapshots per-core cumulative busy time (pass to SnapshotCPU as
// the window-start baseline).
func CaptureBusy(cores []*sim.Core) ([]sim.Duration, []map[string]sim.Duration) {
	busy := make([]sim.Duration, len(cores))
	tags := make([]map[string]sim.Duration, len(cores))
	for i, c := range cores {
		busy[i] = c.BusyTotal()
		tags[i] = c.BusyByTag()
	}
	return busy, tags
}

// FormatCPU renders utilization samples as a compact multi-line table.
func FormatCPU(samples []CPUSample) string {
	var out string
	for _, s := range samples {
		if s.Total < 0.005 {
			continue
		}
		out += fmt.Sprintf("  core %d: %5.1f%%", s.Core, s.Total*100)
		tags := make([]string, 0, len(s.ByTag))
		for tag := range s.ByTag {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		for _, tag := range tags {
			out += fmt.Sprintf("  %s=%.1f%%", tag, s.ByTag[tag]*100)
		}
		out += "\n"
	}
	if out == "" {
		out = "  (all cores idle)\n"
	}
	return out
}
