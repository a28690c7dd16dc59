package overlay

import (
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

// BenchmarkStageEmitRun drives one pipeline stage end to end — enqueue,
// NAPI poll, per-skb device work, run-coalesced emission back to the pool —
// and pins the steady state at 0 allocs/op via the bench gate.
func BenchmarkStageEmitRun(b *testing.B) {
	sched := sim.NewScheduler(1)
	core := sim.NewCore(0, sched)
	pool := &skb.Pool{}
	h := &host{sc: Scenario{Costs: DefaultCosts()}, sched: sched, pool: pool}
	st := h.newStage("bench", core, 0, 0)
	st.out = func(s *skb.SKB, _ sim.Time) { pool.Put(s) }
	feed := st.feed()

	burst := func(base uint64) {
		for j := uint64(0); j < 64; j++ {
			s := pool.Get()
			s.FlowID = 1
			s.Proto = skb.TCP
			s.Seq = base + j
			s.Segs = 1
			s.WireLen = 1514
			s.PayloadLen = 1448
			feed(s, sched.Now())
		}
		sched.Run()
	}
	burst(0) // warm the pool, worker buffers and core tag map

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst(uint64(i+1) * 64)
	}
}
