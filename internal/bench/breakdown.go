package bench

import (
	"fmt"

	"mflow/internal/causal"
	"mflow/internal/overlay"
	"mflow/internal/steering"
)

// BreakdownRecord is one (segment kind, stage) row of a probed run's causal
// latency breakdown, as serialized into artifacts. Durations are in
// microseconds to match the artifact's latency fields.
type BreakdownRecord struct {
	Kind    string  `json:"kind"`
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count"`
	TotalUs float64 `json:"total_us"`
	MaxUs   float64 `json:"max_us"`
}

// breakdownRecords converts a run's aggregated KindStats (already sorted by
// kind then stage) into artifact records.
func breakdownRecords(stats []causal.KindStat) []BreakdownRecord {
	if len(stats) == 0 {
		return nil
	}
	out := make([]BreakdownRecord, 0, len(stats))
	for _, st := range stats {
		out = append(out, BreakdownRecord{
			Kind:    st.Kind.String(),
			Stage:   st.Stage,
			Count:   st.Count,
			TotalUs: float64(st.Total) / 1000,
			MaxUs:   float64(st.Max) / 1000,
		})
	}
	return out
}

// BreakdownTable renders one probed run's causal breakdown as a table:
// where this system × protocol's end-to-end latency actually went, one row
// per (segment kind, stage), with each kind's share of total in-stack time.
func BreakdownTable(res *overlay.Result) *Table {
	sc := res.Scenario
	t := &Table{
		ID:      fmt.Sprintf("breakdown-%s-%s", sc.System, sc.Proto),
		Title:   fmt.Sprintf("causal latency breakdown — %s", sc.Name()),
		Columns: []string{"kind", "stage", "count", "total_us", "max_us", "share"},
	}
	var total float64
	for _, st := range res.Breakdown {
		total += float64(st.Total)
	}
	for _, st := range res.Breakdown {
		share := 0.0
		if total > 0 {
			share = 100 * float64(st.Total) / total
		}
		t.Rows = append(t.Rows, []string{
			st.Kind.String(),
			st.Stage,
			fmt.Sprintf("%d", st.Count),
			fmt.Sprintf("%.1f", float64(st.Total)/1000),
			fmt.Sprintf("%.2f", float64(st.Max)/1000),
			fmt.Sprintf("%.1f%%", share),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("handoff mechanism: %s", steering.HandoffLabel(sc.System)))
	return t
}
