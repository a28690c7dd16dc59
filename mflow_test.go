package mflow

import (
	"testing"

	"mflow/internal/sim"
)

func TestFacadeRun(t *testing.T) {
	res := Run(Scenario{
		System: MFlow, Proto: TCP, MsgSize: 65536,
		Warmup: 2 * sim.Millisecond, Measure: 4 * sim.Millisecond,
	})
	if res.Gbps <= 0 {
		t.Fatal("facade Run produced no throughput")
	}
}

func TestFacadeSystems(t *testing.T) {
	if len(Systems) != 6 {
		t.Errorf("expected 6 systems, got %d", len(Systems))
	}
	s, err := ParseSystem("mflow")
	if err != nil || s != MFlow {
		t.Errorf("ParseSystem failed: %v %v", s, err)
	}
	if MFlow.String() != "mflow" || Native.String() != "native" {
		t.Error("system names wrong")
	}
}

func TestFacadeCosts(t *testing.T) {
	c := DefaultCosts()
	if c.Alloc.PerSeg <= 0 || c.VXLAN.PerSKB <= 0 {
		t.Error("cost table not populated")
	}
	// Mutating a copy must not leak into later runs.
	c.VXLAN.PerSKB *= 10
	a := Run(Scenario{System: Vanilla, Proto: UDP, Warmup: sim.Millisecond, Measure: 2 * sim.Millisecond})
	b := Run(Scenario{System: Vanilla, Proto: UDP, Costs: c, Warmup: sim.Millisecond, Measure: 2 * sim.Millisecond})
	if !(b.Gbps < a.Gbps) {
		t.Errorf("10x VxLAN cost should reduce throughput (%.2f vs %.2f)", b.Gbps, a.Gbps)
	}
}

func TestFacadeApps(t *testing.T) {
	w := RunWebServing(WebConfig{
		System: MFlow, Users: 60,
		Warmup: 2 * sim.Millisecond, Measure: 6 * sim.Millisecond,
	})
	if w.TotalSuccessPerSec <= 0 {
		t.Error("web serving produced nothing")
	}
	c := RunDataCaching(CachingConfig{
		System: Vanilla, Clients: 1,
		Warmup: sim.Millisecond, Measure: 3 * sim.Millisecond,
	})
	if c.RequestsPerSec <= 0 {
		t.Error("data caching produced nothing")
	}
	if len(DefaultWebOps()) == 0 {
		t.Error("no web ops")
	}
}

func TestFacadeStack(t *testing.T) {
	st := NewStack(Scenario{System: Vanilla, Proto: TCP, Flows: 1})
	got := 0
	st.OnMessage(0, func(uint64, sim.Time) { got++ })
	st.Sched().At(0, func() { st.Send(0, 4096) })
	st.Sched().RunUntil(sim.Time(5 * sim.Millisecond))
	if got != 1 {
		t.Errorf("stack delivered %d messages, want 1", got)
	}
}

func TestBenchRunnerFacade(t *testing.T) {
	r := NewBenchRunner()
	r.Warmup = 1 * sim.Millisecond
	r.Measure = 3 * sim.Millisecond
	tab := r.Fig7()
	if len(tab.Rows) == 0 || tab.Render() == "" {
		t.Error("bench runner facade broken")
	}
}
