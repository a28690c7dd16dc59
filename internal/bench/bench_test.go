package bench

import (
	"strconv"
	"strings"
	"testing"

	"mflow/internal/metrics"
	"mflow/internal/overlay"
	"mflow/internal/sim"
)

func quickRunner() *Runner {
	return &Runner{Warmup: 2 * sim.Millisecond, Measure: 5 * sim.Millisecond}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note line"},
	}
	out := tab.Render()
	for _, want := range []string{"== x — demo ==", "long-column", "333", "note line"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,long-column\n1,2\n") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

func TestHelpers(t *testing.T) {
	if gbps(12.345) != "12.35" {
		t.Errorf("gbps format: %s", gbps(12.345))
	}
	if pct(1.81) != "+81%" {
		t.Errorf("pct format: %s", pct(1.81))
	}
	if sizeLabel(65536) != "64KB" || sizeLabel(16) != "16B" {
		t.Error("size labels wrong")
	}
	notes := cpuNotes("x", &overlay.Result{CPU: []metrics.CPUSample{{Core: 0, Total: 0.5}, {Core: 1, Total: 0.25}}})
	if len(notes) != 3 || notes[0] != "x:" || notes[2] != "  core 1:  25.0%" {
		t.Errorf("cpuNotes: %q", notes)
	}
}

func TestRunnerCaches(t *testing.T) {
	r := quickRunner()
	a := r.single(0, 0, 65536)
	b := r.single(0, 0, 65536)
	if a != b {
		t.Error("identical scenarios should hit the cache")
	}
}

func TestFig7ShapeMonotone(t *testing.T) {
	r := quickRunner()
	tab := r.Fig7()
	if len(tab.Rows) < 5 {
		t.Fatal("fig7 rows missing")
	}
	first, _ := strconv.Atoi(tab.Rows[0][1])
	var at256 int
	for _, row := range tab.Rows {
		if row[0] == "256" {
			at256, _ = strconv.Atoi(row[1])
		}
	}
	if at256 >= first {
		t.Errorf("OOO deliveries should fall from batch 1 (%d) to 256 (%d)", first, at256)
	}
}

func TestFig8SummaryShape(t *testing.T) {
	r := quickRunner()
	tables := r.Fig8()
	var sum *Table
	for _, tab := range tables {
		if tab.ID == "fig8a-summary" {
			sum = tab
		}
	}
	if sum == nil {
		t.Fatal("summary table missing")
	}
	// Every "measured" gain cell must be positive.
	for _, row := range sum.Rows[:4] {
		if !strings.HasPrefix(row[2], "+") {
			t.Errorf("%s measured %s, want a gain", row[0], row[2])
		}
	}
}

func TestFig12BalanceShape(t *testing.T) {
	r := quickRunner()
	tab := r.Fig12()
	if len(tab.Rows) != 2 {
		t.Fatal("fig12 should compare FALCON and MFLOW")
	}
	fstd, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
	mstd, _ := strconv.ParseFloat(tab.Rows[1][2], 64)
	if !(mstd < fstd) {
		t.Errorf("MFLOW stddev %.1f should be below FALCON %.1f", mstd, fstd)
	}
}

func TestAblationTablesRender(t *testing.T) {
	r := quickRunner()
	for _, tab := range []*Table{
		r.AblationReassembly(),
		r.AblationLateMerge(),
		r.AblationIRQSplit(),
	} {
		if len(tab.Rows) < 2 {
			t.Errorf("%s: too few rows", tab.ID)
		}
		if out := tab.Render(); len(out) == 0 {
			t.Errorf("%s: empty render", tab.ID)
		}
	}
}

func TestAblationSplitCoresMonotoneStart(t *testing.T) {
	r := quickRunner()
	tab := r.AblationSplitCores()
	one, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	two, _ := strconv.ParseFloat(tab.Rows[1][1], 64)
	if !(two > one) {
		t.Errorf("2 split cores (%.2f) should beat 1 (%.2f)", two, one)
	}
}
