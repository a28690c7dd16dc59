package main

import (
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"inlined math.Exp under Core.adjust", []string{
			"math.Exp", "mflow/internal/sim.(*Core).adjust", "mflow/internal/sim.(*Core).Exec",
			"mflow/internal/overlay.(*stage).process",
		}, "sim_core"},
		{"normal sampler", []string{"mflow/internal/sim.(*Rand).NormFloat64", "mflow/internal/sim.(*Core).adjust"}, "sim_core"},
		{"heap push", []string{"mflow/internal/sim.(*Scheduler).push", "mflow/internal/sim.(*Scheduler).AtHandler"}, "sim_sched"},
		{"worker poll", []string{"mflow/internal/sim.(*Worker[go.shape.*uint8]).poll", "mflow/internal/sim.(*Scheduler).RunUntil"}, "sim_worker"},
		{"gc mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{"allocation", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "mflow/internal/traffic.(*TCPSender).sendSegment"}, "runtime_malloc"},
		{"assist inside allocation", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "mflow/internal/skb.(*Pool).Get"}, "runtime_gc"},
		{"write barrier", []string{"runtime.bulkBarrierPreWrite", "runtime.wbMove", "mflow/internal/sim.(*Scheduler).push"}, "runtime_gc"},
		{"memmove charged to caller", []string{"runtime.memmove", "mflow/internal/traffic.FillPattern"}, "traffic"},
		{"sort charged to caller", []string{"sort.insertionSort", "sort.Sort", "mflow/internal/metrics.SnapshotCPU"}, "metrics"},
		{"txpath folds into traffic", []string{"mflow/internal/txpath.(*Path).send"}, "traffic"},
		{"idle runtime", []string{"runtime.futex", "runtime.futexsleep", "runtime.findRunnable", "runtime.schedule"}, "runtime_other"},
		{"benchmark's own code", []string{"crypto/sha256.block", "main.summarize"}, "benchmark"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	const out = `File: mflowbenchmark
Type: cpu
Duration: 3.2s, Total samples = 60ms ( 1.88%)
-----------+-------------------------------------------------------
      30ms   math.Exp (inline)
             mflow/internal/sim.(*Core).adjust
             mflow/internal/sim.(*Core).Exec
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      1.02s  mflow/internal/sim.(*Scheduler).pop (inline)
             mflow/internal/sim.(*Scheduler).RunUntil
-----------+-------------------------------------------------------
`
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim_core":   30 * time.Millisecond,
		"runtime_gc": 10 * time.Millisecond,
		"sim_sched":  1020 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("parseTraces = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseTraces("File: x\n"); err == nil {
		t.Error("parseTraces accepted output with no samples")
	}
}
