package causal

import (
	"fmt"
	"strings"

	"mflow/internal/sim"
)

// RenderTimeline formats one packet's segment decomposition as an indented
// timeline: offset from arrival, duration, kind, stage, and reorder blame.
func RenderTimeline(r *Rec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pkt %d flow %d seq %d segs %d: e2e %v\n",
		r.Pkt, r.Flow, r.Seq, r.Segs, r.E2E())
	for _, seg := range r.Timeline {
		blame := ""
		if seg.Kind == SegReorderWait {
			if seg.Blame != 0 {
				blame = fmt.Sprintf("  (released by pkt %d)", seg.Blame)
			} else {
				blame = "  (released by gap-timeout/flush)"
			}
		}
		fmt.Fprintf(&b, "  +%-12v %-12v %-12s %-12s%s\n",
			seg.Start.Sub(r.Arrived), seg.Dur(), seg.Kind, seg.Stage, blame)
	}
	return b.String()
}

// RenderBreakdown formats a breakdown as aligned rows with each row's share
// of the summed segment time. It is the text the breakdown goldens pin and
// the determinism tests compare; mflowinspect prints bench.BreakdownTable.
func RenderBreakdown(stats []KindStat) string {
	var total sim.Duration
	for _, st := range stats {
		total += st.Total
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-12s %10s %14s %12s %7s\n",
		"kind", "stage", "count", "total", "max", "share")
	for _, st := range stats {
		share := 0.0
		if total > 0 {
			share = 100 * float64(st.Total) / float64(total)
		}
		fmt.Fprintf(&b, "%-14v %-12s %10d %14v %12v %6.2f%%\n",
			st.Kind, st.Stage, st.Count, st.Total, st.Max, share)
	}
	return b.String()
}
