package steering

import (
	"testing"

	"mflow/internal/nic"
)

// chiSquared computes Pearson's statistic for observed counts against a
// uniform expectation.
func chiSquared(counts []int, total int) float64 {
	expected := float64(total) / float64(len(counts))
	x2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	return x2
}

// chiSquaredCritical are the α=0.001 upper critical values for the degrees
// of freedom the mask sizes below produce. A uniform hash fails this about
// once in a thousand (seedless, deterministic inputs: never flaky).
var chiSquaredCritical = map[int]float64{
	1: 10.828,
	3: 16.266,
	7: 24.322,
}

// flowPopulations are the synthetic flow-ID sets steered through the
// tables: sequential IDs (the simulator's own surrogate scheme), strided
// IDs (many flows sharing low bits — the classic weak-hash failure mode),
// and high-entropy IDs.
func flowPopulations(n int) map[string][]uint64 {
	seq := make([]uint64, n)
	strided := make([]uint64, n)
	mixed := make([]uint64, n)
	for i := 0; i < n; i++ {
		seq[i] = uint64(i + 1)
		strided[i] = uint64(i+1) << 12
		mixed[i] = nic.Hash64(uint64(i)*2654435761 + 12345)
	}
	return map[string][]uint64{"sequential": seq, "strided": strided, "mixed": mixed}
}

// TestNICRSSDistributionUniform applies the same uniformity bar to the
// hardware-RSS stand-in (nic.Hash64 queue selection), which Fig. 4's
// multi-flow scenarios and the RPS/MFLOW topologies all depend on.
func TestNICRSSDistributionUniform(t *testing.T) {
	const flows = 4096
	for name, ids := range flowPopulations(flows) {
		for _, queues := range []int{2, 4, 8} {
			counts := make([]int, queues)
			for _, id := range ids {
				counts[nic.Hash64(id)%uint64(queues)]++
			}
			x2 := chiSquared(counts, flows)
			if crit := chiSquaredCritical[queues-1]; x2 > crit {
				t.Errorf("%s/queues=%d: chi-squared %.2f exceeds %.2f (α=0.001); counts %v",
					name, queues, x2, crit, counts)
			}
		}
	}
}
