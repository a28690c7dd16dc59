package overlay

import (
	"fmt"
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// testHost builds sc's single-host topology on a fresh runEnv, for tests
// that poke at the host before or after running it.
func testHost(sc Scenario, pr Probes) *host {
	return buildHost(sc, pr, newRunEnv(sc, runOpts{}))
}

// assertPoolingInvisible runs mk's scenario pooled and unpooled and requires
// bit-identical fingerprints.
func assertPoolingInvisible(t *testing.T, label string, mk func() Scenario) {
	t.Helper()
	pooled := Run(mk()).Fingerprint()
	unpooled := run(mk(), Probes{}, runOpts{unpooled: true}).Fingerprint()
	if pooled != unpooled {
		t.Errorf("%s: pooled run diverged from unpooled:\n--- pooled ---\n%s\n--- unpooled ---\n%s",
			label, pooled, unpooled)
	}
}

// TestPoolingDoesNotChangeResults is the pool's correctness oracle: a pooled
// run and an allocation-per-skb run of the same scenario must produce
// bit-identical fingerprints — throughput, latency quantiles, CPU samples
// and the full obs snapshot. Pool.Get returns fully zeroed SKBs and nothing
// in the simulation observes pointer identity, so recycling must be
// invisible. Wire-mode cells recycle byte arenas too, and fabric cells
// share one pool across hosts and recycle underlay drops.
func TestPoolingDoesNotChangeResults(t *testing.T) {
	t.Parallel()
	type cell struct {
		sys          steering.System
		proto        skb.Proto
		wire, fabric bool
	}
	cells := []cell{
		{steering.Vanilla, skb.TCP, false, false},
		{steering.Vanilla, skb.UDP, false, false},
		{steering.MFlow, skb.TCP, false, false},
		{steering.MFlow, skb.UDP, false, false},
	}
	if !testing.Short() {
		cells = cells[:0]
		for _, sys := range steering.ExtendedSystems {
			for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
				cells = append(cells, cell{sys, proto, false, false})
			}
		}
	}
	cells = append(cells,
		cell{steering.MFlow, skb.TCP, true, false},
		cell{steering.Vanilla, skb.UDP, true, false},
		cell{steering.MFlow, skb.TCP, false, true},
		cell{steering.MFlow, skb.TCP, true, true},
		cell{steering.Native, skb.TCP, true, true},
	)
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s wire=%v fabric=%v", c.sys, c.proto, c.wire, c.fabric)
		assertPoolingInvisible(t, label, func() Scenario {
			sc := determinismScenario(c.sys, c.proto)
			sc.WireMode = c.wire
			if c.fabric {
				sc.Flows = 2
				sc.Fabric = &fabric.Config{Hosts: 2}
			}
			return sc
		})
	}
}

// Fault-injected paths recycle at extra points (duplicate discards, OFO
// pruning, corrupt-drop), so pin pooled/unpooled equality there too.
func TestPoolingDoesNotChangeFaultResults(t *testing.T) {
	t.Parallel()
	assertPoolingInvisible(t, "fault-injected", func() Scenario {
		sc := determinismScenario(steering.MFlow, skb.TCP)
		sc.Faults = fault.ChaosProfiles()["random"]
		return sc
	})
}

// TestPoolRecyclesDuringRun proves the pool is actually in the loop: over a
// full run, recycling must outpace fresh allocation (the steady state runs
// on recycled SKBs; Allocs only tracks the high-water mark of in-flight
// buffers), and recycled SKBs must be re-issued, not just parked.
func TestPoolRecyclesDuringRun(t *testing.T) {
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		sc := determinismScenario(steering.MFlow, proto).withDefaults()
		h := testHost(sc, Probes{})
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
