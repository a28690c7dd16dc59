package overlay

import (
	"testing"

	"mflow/internal/fault"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// withPoolDisabled runs f with SKB pooling switched off process-wide,
// restoring the previous state afterwards. Package tests run sequentially,
// so flipping the package variable is safe.
func withPoolDisabled(f func()) {
	prev := disablePool
	disablePool = true
	defer func() { disablePool = prev }()
	f()
}

// TestPoolingDoesNotChangeResults is the pool's correctness oracle: a pooled
// run and an allocation-per-skb run of the same scenario must produce
// bit-identical fingerprints — throughput, latency quantiles, CPU samples
// and the full obs snapshot. Pool.Get returns fully zeroed SKBs and nothing
// in the simulation observes pointer identity, so recycling must be
// invisible.
func TestPoolingDoesNotChangeResults(t *testing.T) {
	type cell struct {
		sys   steering.System
		proto skb.Proto
	}
	cells := []cell{
		{steering.Vanilla, skb.TCP},
		{steering.Vanilla, skb.UDP},
		{steering.MFlow, skb.TCP},
		{steering.MFlow, skb.UDP},
	}
	if !testing.Short() {
		cells = cells[:0]
		for _, sys := range steering.ExtendedSystems {
			for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
				cells = append(cells, cell{sys, proto})
			}
		}
	}
	for _, c := range cells {
		pooled := Run(determinismScenario(c.sys, c.proto)).Fingerprint()
		var unpooled string
		withPoolDisabled(func() {
			unpooled = Run(determinismScenario(c.sys, c.proto)).Fingerprint()
		})
		if pooled != unpooled {
			t.Errorf("%s/%s: pooled run diverged from unpooled:\n--- pooled ---\n%s\n--- unpooled ---\n%s",
				c.sys, c.proto, pooled, unpooled)
		}
	}
}

// Fault-injected paths recycle at extra points (duplicate discards, OFO
// pruning, corrupt-drop), so pin pooled/unpooled equality there too.
func TestPoolingDoesNotChangeFaultResults(t *testing.T) {
	plan := fault.ChaosProfiles()["random"]
	mk := func() Scenario {
		sc := determinismScenario(steering.MFlow, skb.TCP)
		sc.Faults = plan
		return sc
	}
	pooled := Run(mk()).Fingerprint()
	var unpooled string
	withPoolDisabled(func() { unpooled = Run(mk()).Fingerprint() })
	if pooled != unpooled {
		t.Errorf("fault-injected pooled run diverged from unpooled:\n--- pooled ---\n%s\n--- unpooled ---\n%s",
			pooled, unpooled)
	}
}

// TestPoolRecyclesDuringRun proves the pool is actually in the loop: over a
// full run, recycling must outpace fresh allocation (the steady state runs
// on recycled SKBs; Allocs only tracks the high-water mark of in-flight
// buffers), and recycled SKBs must be re-issued, not just parked.
func TestPoolRecyclesDuringRun(t *testing.T) {
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		sc := determinismScenario(steering.MFlow, proto).withDefaults()
		h := buildHost(sc, Probes{}, hostOpts{})
		h.run()
		if h.pool == nil {
			t.Fatalf("%s: host built without a pool", proto)
		}
		if h.pool.Puts <= h.pool.Allocs {
			t.Errorf("%s: %d Puts vs %d fresh allocations — recycling is not carrying the steady state",
				proto, h.pool.Puts, h.pool.Allocs)
		}
		if reused := h.pool.Puts - uint64(h.pool.Free()); reused == 0 {
			t.Errorf("%s: recycled SKBs were never re-issued", proto)
		}
	}
}

// TestEndToEndAllocCeiling pins each system's whole-run allocation count
// under a generous ceiling (~5x the measured steady state), so an engine
// change that reintroduces per-event or per-skb allocation fails loudly
// rather than silently doubling GC pressure. Exact numbers live in
// BenchmarkEndToEnd; this is only a tripwire.
func TestEndToEndAllocCeiling(t *testing.T) {
	const ceiling = 25_000 // measured: 450–5100 allocs/run across the matrix
	for _, sys := range steering.Systems {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			sc := Scenario{
				System: sys, Proto: proto, MsgSize: 65536,
				Warmup: 5e5, Measure: 1e6,
				Seed: 42,
			}
			avg := testing.AllocsPerRun(1, func() { Run(sc) })
			if avg > ceiling {
				t.Errorf("%s/%s: %.0f allocs per run, ceiling %d", sys, proto, avg, ceiling)
			}
		}
	}
}

// BenchmarkEndToEnd runs one short full-topology scenario per iteration for
// each steering system — the macro-level allocation and time budget the
// engine work targets (run with -benchmem; gated in CI via cmd/benchgate).
func BenchmarkEndToEnd(b *testing.B) {
	for _, sys := range steering.Systems {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			b.Run(sys.String()+"/"+proto.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc := Scenario{
						System: sys, Proto: proto, MsgSize: 65536,
						Warmup: 5e5, Measure: 1e6, // 0.5ms + 1ms simulated
						Seed: 42,
					}
					if Run(sc) == nil {
						b.Fatal("nil result")
					}
				}
			})
		}
	}
}
