package bench

import (
	"reflect"
	"testing"

	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// TestCommittedArtifactPin re-runs a handful of the committed BENCH_all.json
// scenarios at the artifact's own seed and windows and requires bit-exact
// agreement: the same v2 key and the same run record. Each alias spells a
// scenario with a field set to its default value, as a figure once did; it
// must resolve to the same committed record as the default spelling. CI's
// full `mflowinspect -compare` sweep covers the remaining runs.
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
	for _, c := range []struct {
		name    string
		sc      overlay.Scenario
		key     string
		aliases []overlay.Scenario
	}{
		{name: "native-TCP", sc: overlay.Scenario{System: steering.Native, Proto: skb.TCP, MsgSize: 65536},
			key: "v2 System:native Proto:TCP Warmup:3000000 Measure:12000000"},
		{name: "mflow-TCP", sc: overlay.Scenario{System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536},
			key:     "v2 System:mflow Proto:TCP Warmup:3000000 Measure:12000000",
			aliases: []overlay.Scenario{{System: steering.MFlow, Proto: skb.TCP, MFlow: overlay.MFlowConfig{BatchSize: 256}}}},
		{name: "rps-UDP", sc: overlay.Scenario{System: steering.RPS, Proto: skb.UDP, MsgSize: 65536},
			key: "v2 System:rps Proto:UDP Warmup:3000000 Measure:12000000"},
		{name: "mflow-UDP", sc: overlay.Scenario{System: steering.MFlow, Proto: skb.UDP, MsgSize: 65536},
			key:     "v2 System:mflow Proto:UDP Warmup:3000000 Measure:12000000",
			aliases: []overlay.Scenario{{System: steering.MFlow, Proto: skb.UDP, MFlow: overlay.MFlowConfig{SplitCores: 2}}}},
		{name: "mflow-UDP-split3", sc: overlay.Scenario{System: steering.MFlow, Proto: skb.UDP, MsgSize: 65536, MFlow: overlay.MFlowConfig{SplitCores: 3}},
			key:     "v2 System:mflow Proto:UDP MFlow.SplitCores:3 Warmup:3000000 Measure:12000000",
			aliases: []overlay.Scenario{{System: steering.MFlow, Proto: skb.UDP, MFlow: overlay.MFlowConfig{SplitCores: 3, LateMerge: true}}}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			key := r.normalize(c.sc).Key()
			if key != c.key {
				t.Fatalf("v2 key changed:\n got %s\nwant %s", key, c.key)
			}
			rec, ok := byKey[key]
			if !ok {
				t.Fatalf("key missing from committed artifact:\n  %s", key)
			}
			for _, alias := range c.aliases {
				if k := r.normalize(alias).Key(); k != key {
					t.Errorf("alias %+v keys apart from its default spelling:\n  %s", alias.MFlow, k)
				}
			}
			got := runRecord(key, r.run(c.sc))
			if !reflect.DeepEqual(got, rec) {
				t.Errorf("run record drifted from committed artifact:\n got %+v\nwant %+v", got, rec)
			}
		})
	}
}
