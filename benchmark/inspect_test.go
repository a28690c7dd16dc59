package main

import (
	"testing"

	"mflow/internal/obs"
	"mflow/internal/overlay"
	"mflow/internal/sim"
)

// TestInspectProbesArePure runs four inspect scenarios probed, as the
// inspect workload does, and unprobed. The probes must not change what
// the run measures, and every probed run must carry a causal breakdown.
//
// inspect calls overlay.RunProbed itself rather than going through
// bench.Runner with Causal set: Runner.Prefetch runs overlay.Run whenever
// Parallel > 1, so on a multi-core machine a causal Runner probes nothing.
func TestInspectProbesArePure(t *testing.T) {
	s := shape{seed: 7, warmup: sim.Millisecond, measure: 2 * sim.Millisecond}
	matrix := faultMatrix(s)
	// lossless MFLOW TCP, burst-loss vanilla UDP, random-loss RPS TCP and
	// lossless FALCON-func UDP: both protocols, every fault profile and
	// both splitting and serial systems.
	for _, i := range []int{30, 10, 14, 27} {
		sc := matrix[i]
		t.Run(sc.Name(), func(t *testing.T) {
			plain := sc
			plain.Obs = obs.New()
			want := overlay.Run(plain).Fingerprint()

			out := runScenario(sc, true, nil, "test", 0)
			if out.err != "" {
				t.Fatal(out.err)
			}
			if got := out.res.Fingerprint(); got != want {
				t.Errorf("probed fingerprint differs from unprobed:\n%s\nvs\n%s", got, want)
			}
			if len(out.res.Breakdown) == 0 {
				t.Error("probed run carries no causal breakdown")
			}
			if why := checkRun(out.res, out.prof); why != "" {
				t.Error(why)
			}
		})
	}
}
