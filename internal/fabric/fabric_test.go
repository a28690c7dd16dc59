package fabric

import (
	"testing"

	"mflow/internal/fault"
	"mflow/internal/netdev"
	"mflow/internal/packet"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// depth is the link's queued backlog in bytes at now: the analytic
// oracle for the serializer's horizon.
func depth(l *Link, now sim.Time) int {
	if l.horizon <= now {
		return 0
	}
	return int(float64(l.horizon.Sub(now)) * l.Gbps / 8)
}

func TestConfigEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config must be disabled")
	}
	if (&Config{}).Enabled() {
		t.Error("zero config must be disabled")
	}
	if (&Config{Hosts: 1}).Enabled() {
		t.Error("one host is not a fabric")
	}
	if !(&Config{Hosts: 2}).Enabled() {
		t.Error("two hosts must enable the fabric")
	}
}

func TestConfigDefaultsAndPlacement(t *testing.T) {
	c := Config{Hosts: 3}.WithDefaults()
	if c.Placement != PlacePair || c.LinkGbps != 40 ||
		c.LinkLatency != 5*sim.Microsecond || c.LinkQueueBytes != 512<<10 {
		t.Errorf("defaults not applied: %+v", c)
	}
	// Pair: rx = f%N, tx the next host ring-wise; never tx == rx.
	for f := 0; f < 9; f++ {
		tx, rx := c.Place(f)
		if rx != f%3 || tx != (rx+1)%3 {
			t.Errorf("pair flow %d placed tx=%d rx=%d", f, tx, rx)
		}
	}
	inc := Config{Hosts: 4, Placement: PlaceIncast}.WithDefaults()
	for f := 0; f < 9; f++ {
		tx, rx := inc.Place(f)
		if rx != 0 || tx == 0 || tx != 1+f%3 {
			t.Errorf("incast flow %d placed tx=%d rx=%d", f, tx, rx)
		}
	}
}

func TestContainerMACDistinct(t *testing.T) {
	seen := map[packet.MAC]bool{}
	for f := uint64(1); f <= 8; f++ {
		for h := 0; h < 4; h++ {
			for _, rx := range []bool{true, false} {
				m := ContainerMAC(f, h, rx)
				if seen[m] {
					t.Fatalf("duplicate MAC %v for flow=%d host=%d rx=%v", m, f, h, rx)
				}
				seen[m] = true
			}
		}
	}
}

// TestLinkSerialization pins the fluid serializer's exact math: sim time is
// nanoseconds, so a 1 Gbps link serializes 1 bit per nanosecond.
func TestLinkSerialization(t *testing.T) {
	l := &Link{Gbps: 1, QueueBytes: 1000}
	dep, ok := l.Send(0, 125) // 1000 bits at 1 bit/ns
	if !ok || dep != 1000 {
		t.Fatalf("first frame dep=%v ok=%v, want 1000ns", dep, ok)
	}
	dep, ok = l.Send(0, 125) // queues behind the first
	if !ok || dep != 2000 {
		t.Fatalf("second frame dep=%v ok=%v, want 2000ns", dep, ok)
	}
	if d := depth(l, 0); d != 250 {
		t.Errorf("depth(0) = %d bytes, want 250", d)
	}
	if d := depth(l, 1000); d != 125 {
		t.Errorf("depth(1000) = %d bytes, want 125", d)
	}
	if d := depth(l, 3000); d != 0 {
		t.Errorf("depth(3000) = %d bytes, want 0 after drain", d)
	}
	// A frame that would push the backlog past QueueBytes tail-drops
	// without consuming bandwidth.
	if _, ok := l.Send(0, 800); ok {
		t.Fatal("backlog 250+800 > 1000 bytes must tail-drop")
	}
	if l.Drops != 1 || l.TxFrames != 2 || l.TxBytes != 250 {
		t.Errorf("counters drops=%d frames=%d bytes=%d", l.Drops, l.TxFrames, l.TxBytes)
	}
	// The drop left the horizon untouched: the next fitting frame queues
	// exactly behind the second.
	if dep, ok := l.Send(0, 125); !ok || dep != 3000 {
		t.Errorf("post-drop frame dep=%v ok=%v, want 3000ns", dep, ok)
	}
}

func testUnderlay(n int, cfg Config) (*Underlay, *sim.Scheduler) {
	sched := sim.NewScheduler(1)
	return NewUnderlay(n, cfg.WithDefaults(), sched), sched
}

// TestUnderlayDeliveryOrderAndLatency sends a burst host0→host1 and checks
// per-flow FIFO delivery, exact first-frame latency (uplink serialization +
// propagation + downlink serialization) and conservation.
func TestUnderlayDeliveryOrderAndLatency(t *testing.T) {
	cfg := Config{Hosts: 2, LinkGbps: 1, LinkLatency: 5 * sim.Microsecond}
	u, sched := testUnderlay(2, cfg)
	var got []uint64
	var at []sim.Time
	u.DeliverTo = func(dst int, s *skb.SKB) {
		if dst != 1 {
			t.Fatalf("frame for host 1 delivered to %d", dst)
		}
		got = append(got, s.Seq)
		at = append(at, sched.Now())
	}
	u.Drop = func(*skb.SKB) { t.Fatal("lossless config dropped") }
	for i := 0; i < 10; i++ {
		s := &skb.SKB{FlowID: 1, Seq: uint64(i), Segs: 1, WireLen: 125}
		if !u.Send(sched.Now(), 0, 1, s) {
			t.Fatalf("frame %d rejected at uplink", i)
		}
	}
	sched.RunUntil(sim.Time(1 * sim.Millisecond))
	if len(got) != 10 || u.Delivered != 10 || u.Sent != 10 || u.InFlight() != 0 {
		t.Fatalf("delivered %d (counter %d, sent %d, inflight %d), want 10",
			len(got), u.Delivered, u.Sent, u.InFlight())
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("delivery order broken at %d: got seq %d", i, seq)
		}
	}
	// 125 B at 1 Gbps = 1000ns per serializer, plus 5µs propagation.
	if want := sim.Time(1000 + 5000 + 1000); at[0] != want {
		t.Errorf("first delivery at %v, want %v", at[0], want)
	}
	// Back-to-back frames pace out at the serialization interval.
	if gap := at[1].Sub(at[0]); gap != 1000 {
		t.Errorf("inter-delivery gap %v, want 1000ns", gap)
	}
}

// TestUnderlayDropOwnership pins the skb-ownership contract: an uplink
// tail-drop returns false and leaves the frame with the caller; a downlink
// tail-drop (the incast case) retires through the Drop hook.
func TestUnderlayDropOwnership(t *testing.T) {
	cfg := Config{Hosts: 3, LinkGbps: 1, LinkLatency: sim.Microsecond, LinkQueueBytes: 300}
	u, sched := testUnderlay(3, cfg)
	delivered, dropped := 0, 0
	u.DeliverTo = func(_ int, s *skb.SKB) { delivered++ }
	u.Drop = func(s *skb.SKB) { dropped++ }

	// Uplink drop: host 0's uplink holds 300 bytes; the third 125-byte
	// frame must be refused synchronously.
	okCount := 0
	for i := 0; i < 3; i++ {
		if u.Send(sched.Now(), 0, 1, &skb.SKB{FlowID: 1, Seq: uint64(i), Segs: 1, WireLen: 125}) {
			okCount++
		}
	}
	if okCount != 2 || u.Drops != 1 {
		t.Fatalf("uplink accepted %d frames (drops=%d), want 2 accepted 1 dropped", okCount, u.Drops)
	}
	if dropped != 0 {
		t.Fatal("uplink tail-drop must NOT retire via the Drop hook (caller owns the skb)")
	}

	// Downlink drop: hosts 0 and 2 both blast host 1; its downlink queue
	// cannot hold both bursts, so some frames die inside the underlay and
	// MUST retire through Drop.
	for i := 0; i < 4; i++ {
		u.Send(sched.Now(), 0, 1, &skb.SKB{FlowID: 1, Segs: 1, WireLen: 75})
		u.Send(sched.Now(), 2, 1, &skb.SKB{FlowID: 2, Segs: 1, WireLen: 75})
	}
	sched.RunUntil(sim.Time(1 * sim.Millisecond))
	if dropped == 0 {
		t.Fatal("incast onto one downlink never dropped")
	}
	if u.Sent != u.Delivered+u.Drops+uint64(u.InFlight()) {
		t.Fatalf("conservation broken: sent=%d delivered=%d drops=%d inflight=%d",
			u.Sent, u.Delivered, u.Drops, u.InFlight())
	}
	if delivered == 0 {
		t.Fatal("no frames survived the incast")
	}
}

// TestFloodCopiesConsumeBandwidthOnly checks head-end replication: copies
// serialize on the links (delaying real traffic) but never deliver and are
// invisible to Sent/Delivered conservation.
func TestFloodCopiesConsumeBandwidthOnly(t *testing.T) {
	cfg := Config{Hosts: 3, LinkGbps: 1, LinkLatency: sim.Microsecond}
	u, sched := testUnderlay(3, cfg)
	var deliveries []sim.Time
	u.DeliverTo = func(_ int, s *skb.SKB) { deliveries = append(deliveries, sched.Now()) }
	u.Drop = func(*skb.SKB) { t.Fatal("unexpected drop") }

	// Copy first, then the real frame: the copy's serialization delays it.
	u.SendCopy(0, 0, 2, 125)
	if !u.Send(0, 0, 1, &skb.SKB{FlowID: 1, Segs: 1, WireLen: 125}) {
		t.Fatal("real frame rejected")
	}
	sched.RunUntil(sim.Time(1 * sim.Millisecond))
	if u.FloodCopies != 1 || u.Sent != 1 || u.Delivered != 1 {
		t.Fatalf("copies=%d sent=%d delivered=%d, want 1/1/1", u.FloodCopies, u.Sent, u.Delivered)
	}
	if len(deliveries) != 1 {
		t.Fatalf("flood copy materialized: %d deliveries", len(deliveries))
	}
	// Real frame queued behind the copy: 2×1000ns uplink + 1µs + 1000ns.
	if want := sim.Time(2000 + 1000 + 1000); deliveries[0] != want {
		t.Errorf("delivery at %v, want %v (copy must serialize first)", deliveries[0], want)
	}
	if u.Up(0).TxFrames != 2 {
		t.Errorf("uplink serialized %d frames, want 2 (copy + real)", u.Up(0).TxFrames)
	}
}

// TestScheduleLearn verifies the reverse-learn event: the bridge learns the
// MAC one propagation delay later, not immediately.
func TestScheduleLearn(t *testing.T) {
	cfg := Config{Hosts: 2, LinkLatency: 3 * sim.Microsecond}
	u, sched := testUnderlay(2, cfg)
	b := netdev.NewBridge()
	b.AttachPort(func(*skb.SKB) {})
	b.AttachPort(func(*skb.SKB) {})
	mac := ContainerMAC(1, 1, true)
	u.ScheduleLearn(b, mac, 1)
	if _, ok := b.LookupAt(mac, 0); ok {
		t.Fatal("bridge learned before the propagation delay elapsed")
	}
	sched.RunUntil(sim.Time(2 * sim.Microsecond))
	if _, ok := b.LookupAt(mac, 0); ok {
		t.Fatal("bridge learned too early")
	}
	sched.RunUntil(sim.Time(4 * sim.Microsecond))
	if p, ok := b.LookupAt(mac, 0); !ok || p != 1 {
		t.Fatalf("bridge did not learn after latency: port=%d ok=%v", p, ok)
	}
}

// TestVxLANWireRoundTrip carries encapsulated frames across the underlay
// under injected loss (the chaos wire profiles) with two sender hosts
// interleaving arrivals at one receiver: every frame that survives decaps
// back to its original length, and conservation holds end to end.
func TestVxLANWireRoundTrip(t *testing.T) {
	for name, plan := range fault.ChaosProfiles() {
		if !plan.WireActive() {
			continue
		}
		cfg := Config{Hosts: 3, LinkGbps: 10, LinkLatency: 2 * sim.Microsecond}
		u, sched := testUnderlay(3, cfg)
		inj := fault.NewInjector(*plan, 42)

		const inner = 1500
		vx := &netdev.VXLAN{VNI: 7}
		var survived, decapErrs int
		var rxFault fault.Ingress = deliverFunc(func(s *skb.SKB) bool {
			if err := vx.Decap(s); err != nil {
				decapErrs++
				return false
			}
			if s.WireLen != inner*s.Segs {
				t.Fatalf("%s: round-trip length %d, want %d", name, s.WireLen, inner*s.Segs)
			}
			survived++
			return true
		})
		tap := inj.Wrap(rxFault)
		injDropped := 0
		u.DeliverTo = func(_ int, s *skb.SKB) {
			if !tap.Deliver(s) {
				injDropped++
			}
		}
		u.Drop = func(*skb.SKB) {}

		sent := 0
		for i := 0; i < 200; i++ {
			tx := 1 + i%2 // hosts 1 and 2 interleave toward host 0
			s := &skb.SKB{FlowID: uint64(tx), Seq: uint64(i), Segs: 1, WireLen: inner + packet.OverlayOverhead, Encap: true}
			if u.Send(sched.Now(), tx, 0, s) {
				sent++
			}
			sched.RunUntil(sched.Now().Add(500))
		}
		sched.RunUntil(sched.Now().Add(sim.Duration(1 * sim.Millisecond)))
		if u.Sent != u.Delivered+u.Drops+uint64(u.InFlight()) {
			t.Fatalf("%s: underlay conservation broken", name)
		}
		if survived == 0 {
			t.Fatalf("%s: nothing survived the round trip", name)
		}
		if survived+injDropped != int(u.Delivered)+int(vx.Errors) {
			t.Fatalf("%s: delivery accounting: survived=%d +injDropped=%d != delivered=%d +vxErrs=%d",
				name, survived, injDropped, u.Delivered, vx.Errors)
		}
	}
}

// deliverFunc adapts a func to the fault.Ingress interface.
type deliverFunc func(*skb.SKB) bool

func (f deliverFunc) Deliver(s *skb.SKB) bool { return f(s) }

// BenchmarkFabricOff pins the disabled path at zero allocations: a
// single-host run's only contact with this package is the nil-config
// Enabled check, and the underlay's per-frame Link ops must stay
// allocation-free for fabric runs too. The CI bench gate enforces
// 0 allocs/op.
func BenchmarkFabricOff(b *testing.B) {
	var cfg *Config
	l := &Link{Gbps: 40, QueueBytes: 512 << 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// One 1500B frame per 400ns: under the 300ns serialization time at
		// 40 Gbps, so the queue never builds and nothing drops.
		now := sim.Time(i) * 400
		if cfg.Enabled() {
			b.Fatal("disabled config reported enabled")
		}
		if _, ok := l.Send(now, 1500); !ok {
			b.Fatal("uncongested link dropped")
		}
		if depth(l, now) < 0 {
			b.Fatal("negative depth")
		}
	}
}
