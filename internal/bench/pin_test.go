package bench

import (
	"fmt"
	"reflect"
	"testing"

	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// TestCommittedArtifactPin re-runs a handful of the committed BENCH_all.json
// scenarios at the artifact's own seed and windows and requires bit-exact
// agreement: the same cache key and the same run record. This is the
// in-tree guard that Scenario.Fabric (nil in every "all" run) left the
// single-host path untouched — CI's full `mflowinspect -compare` sweep
// covers the remaining runs.
func TestCommittedArtifactPin(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs full-window scenarios")
	}
	art, err := LoadArtifact("../../BENCH_all.json")
	if err != nil {
		t.Fatalf("committed artifact unreadable: %v", err)
	}
	byKey := map[string]RunRecord{}
	for _, rec := range art.Runs {
		byKey[rec.Key] = rec
	}
	r := &Runner{
		Warmup:  sim.Duration(art.WarmupMs * float64(sim.Millisecond)),
		Measure: sim.Duration(art.MeasureMs * float64(sim.Millisecond)),
		Seed:    art.Seed,
	}
	for _, sc := range []overlay.Scenario{
		{System: steering.Native, Proto: skb.TCP, MsgSize: 65536},
		{System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536},
		{System: steering.RPS, Proto: skb.UDP, MsgSize: 65536},
		{System: steering.MFlow, Proto: skb.UDP, MsgSize: 65536},
	} {
		sc := sc
		t.Run(fmt.Sprintf("%v-%v", sc.System, sc.Proto), func(t *testing.T) {
			t.Parallel()
			key := r.normalize(sc).Key()
			rec, ok := byKey[key]
			if !ok {
				t.Fatalf("key missing from committed artifact — nil-Fabric key changed?\n  %s", key)
			}
			got := runRecord(key, r.run(sc))
			if !reflect.DeepEqual(got, rec) {
				t.Errorf("run record drifted from committed artifact:\n got %+v\nwant %+v", got, rec)
			}
		})
	}
}
