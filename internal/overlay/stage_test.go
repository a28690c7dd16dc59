package overlay

import (
	"testing"

	"mflow/internal/gro"
	"mflow/internal/netdev"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Direct unit tests for the softirq stage engine (pre → GRO → post →
// handoff → emit), independent of full topologies.

func stageFixture(t *testing.T) (*stage, *sim.Scheduler, *sim.Core, *[]*skb.SKB) {
	t.Helper()
	sched := sim.NewScheduler(1)
	core := sim.NewCore(1, sched)
	cfg := DefaultCosts()
	cfg.PollOverhead = 0
	st := (&host{sc: Scenario{Costs: cfg}, sched: sched}).newStage("t", core, 0, 0)
	var out []*skb.SKB
	st.out = func(s *skb.SKB, _ sim.Time) { out = append(out, s) }
	return st, sched, core, &out
}

func tcpSegs(n int) []*skb.SKB {
	segs := make([]*skb.SKB, n)
	for i := range segs {
		segs[i] = &skb.SKB{FlowID: 1, Proto: skb.TCP, Seq: uint64(i), Segs: 1, WireLen: 1500, PayloadLen: 1448}
	}
	return segs
}

func TestStageChargesPrePerSegmentPostPerSKB(t *testing.T) {
	st, sched, core, out := stageFixture(t)
	st.pre = []*netdev.Device{dev("pre", netdev.Cost{PerSeg: 100})}
	st.gro = gro.New()
	st.post = []*netdev.Device{dev("post", netdev.Cost{PerSKB: 1000})}
	sched.At(0, func() {
		for _, s := range tcpSegs(8) {
			st.worker.Enqueue(s)
		}
	})
	sched.Run()
	if len(*out) != 1 {
		t.Fatalf("GRO should merge the batch to one skb, got %d", len(*out))
	}
	// 8 segments * 100 (pre) + 1 merged skb * 1000 (post).
	if got := core.BusyTotal(); got != 1800 {
		t.Errorf("busy %v, want 1800", got)
	}
	by := core.BusyByTag()
	if by["pre"] != 800 || by["post"] != 1000 {
		t.Errorf("tags wrong: %v", by)
	}
}

func TestStageAppliesDeviceActions(t *testing.T) {
	st, sched, _, out := stageFixture(t)
	decapped := 0
	st.post = []*netdev.Device{{
		Name: "act", Cost: netdev.Cost{PerSKB: 10},
		Action: func(s *skb.SKB) { decapped++; s.Encap = false },
	}}
	s := tcpSegs(1)[0]
	s.Encap = true
	sched.At(0, func() { st.worker.Enqueue(s) })
	sched.Run()
	if decapped != 1 || (*out)[0].Encap {
		t.Error("device action not applied")
	}
}

func TestStageHandoffChargedPerEmission(t *testing.T) {
	st, sched, core, _ := stageFixture(t)
	st.handoff = 50
	sched.At(0, func() {
		for _, s := range tcpSegs(4) {
			st.worker.Enqueue(s)
		}
	})
	sched.Run()
	// No pre/post/gro: 4 emissions * 50 handoff.
	if got := core.BusyByTag()["handoff"]; got != 200 {
		t.Errorf("handoff charged %v, want 200", got)
	}
}

func TestStageEachHookRunsPerIncoming(t *testing.T) {
	st, sched, _, _ := stageFixture(t)
	st.gro = gro.New()
	n := 0
	st.each = func(*skb.SKB, *sim.Core) { n++ }
	sched.At(0, func() {
		for _, s := range tcpSegs(6) {
			st.worker.Enqueue(s)
		}
	})
	sched.Run()
	if n != 6 {
		t.Errorf("each ran %d times, want 6 (per incoming segment, pre-GRO)", n)
	}
}

func TestStageEmitsInOrderAcrossBatches(t *testing.T) {
	st, sched, _, out := stageFixture(t)
	st.worker.Budget = 3
	st.post = []*netdev.Device{dev("p", netdev.Cost{PerSKB: 10})}
	segs := tcpSegs(10)
	for i := range segs {
		segs[i].Proto = skb.UDP // prevent merging
	}
	sched.At(0, func() {
		for _, s := range segs {
			st.worker.Enqueue(s)
		}
	})
	sched.Run()
	if len(*out) != 10 {
		t.Fatalf("emitted %d", len(*out))
	}
	for i, s := range *out {
		if s.Seq != uint64(i) {
			t.Fatalf("emission order broken: %d at %d", s.Seq, i)
		}
	}
}
