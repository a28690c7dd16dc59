package main

import (
	"testing"

	"mflow/internal/sim"
)

// TestWorkloadsSmoke runs two reps of every workload at 1 ms + 1 ms
// windows through the correctness gate: every run must deliver, none may
// fail, and the second rep must repeat the first exactly.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			g := gate{ref: map[bool]*repOut{}}
			s := w.shape(3, false)
			s.warmup, s.measure = sim.Millisecond, sim.Millisecond
			for i := 0; i < 2; i++ {
				o := w.safeRun(s, nil, "smoke")()
				g.account(false, o)
				if o.segments == 0 {
					t.Errorf("rep %d delivered no segments", i)
				}
			}
			if g.attempted == 0 || g.failed != 0 {
				t.Errorf("fail_frac = %d/%d, first failure: %s", g.failed, g.attempted, g.first)
			}
		})
	}
}
