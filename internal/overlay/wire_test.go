package overlay

import (
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// wireQuick returns a short wire-mode scenario.
func wireQuick(sys steering.System, proto skb.Proto) Scenario {
	return Scenario{
		System: sys, Proto: proto, MsgSize: 65536,
		WireMode: true,
		Warmup:   1 * sim.Millisecond, Measure: 3 * sim.Millisecond,
	}
}

func TestWireModeEndToEndIntegrity(t *testing.T) {
	// Every system and protocol must move real bytes through the full
	// pipeline — encapsulation, GRO coalescing, byte-level VxLAN
	// decapsulation, splitting/reassembly — with zero integrity errors.
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		for _, sys := range steering.Systems {
			r := Run(wireQuick(sys, proto))
			if r.Gbps <= 0 {
				t.Errorf("%v/%v wire mode: no throughput", sys, proto)
			}
			if r.WireErrors != 0 {
				t.Errorf("%v/%v wire mode: %d integrity errors", sys, proto, r.WireErrors)
			}
		}
	}
}

func TestWireModeDecapsulatesBytes(t *testing.T) {
	sc := wireQuick(steering.MFlow, skb.TCP).withDefaults()
	h := testHost(sc, Probes{})
	h.run()
	fp := h.flows[0]
	if fp.vx == nil || fp.vx.Decapped == 0 {
		t.Fatal("VxLAN device never decapsulated real frames")
	}
	if fp.vx.Errors != 0 {
		t.Errorf("VxLAN decap errors: %d", fp.vx.Errors)
	}
	if fp.sock.VerifyErrors != 0 {
		t.Errorf("socket verify errors: %d (%v)", fp.sock.VerifyErrors, fp.sock.FirstVerifyErr)
	}
	if fp.sock.Bytes == 0 {
		t.Error("nothing delivered")
	}
}

func TestWireModeMatchesSyntheticShape(t *testing.T) {
	// Wire mode must not change the performance model, only add bytes:
	// throughput should match the synthetic run closely.
	syn := Run(Scenario{
		System: steering.Vanilla, Proto: skb.TCP, MsgSize: 65536,
		Warmup: 1 * sim.Millisecond, Measure: 3 * sim.Millisecond,
	})
	wire := Run(wireQuick(steering.Vanilla, skb.TCP))
	ratio := wire.Gbps / syn.Gbps
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("wire mode perturbed throughput: %.2f vs %.2f", wire.Gbps, syn.Gbps)
	}
}

func TestWireModeNativeCarriesPlainFrames(t *testing.T) {
	r := Run(wireQuick(steering.Native, skb.UDP))
	if r.WireErrors != 0 {
		t.Errorf("native wire mode: %d integrity errors", r.WireErrors)
	}
}

// Wire mode across the fabric: senders build real frames into
// headroom-reserved arenas, the TX host's VTEP pushes genuine outer
// headers in place, the frames cross the underlay, and the owner host's
// vxlan device performs a validated per-frame pull. Every delivered
// payload must verify at the remote socket.
func TestFabricWireModeEndToEnd(t *testing.T) {
	for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
		sc := wireQuick(sys, skb.TCP)
		sc.Flows = 2
		sc.Fabric = &fabric.Config{Hosts: 2}
		r := Run(sc)
		if r.Gbps <= 0 {
			t.Errorf("%v fabric wire mode: no throughput", sys)
		}
		if r.WireErrors != 0 {
			t.Errorf("%v fabric wire mode: %d integrity errors", sys, r.WireErrors)
		}
		if r.UnderlaySent == 0 {
			t.Errorf("%v fabric wire mode: frames never crossed the underlay", sys)
		}
	}
}

// Native (host-network) fabric wire mode: plain inner frames cross the
// underlay with no VTEP push, and still verify at the remote socket.
func TestFabricWireModeNative(t *testing.T) {
	sc := wireQuick(steering.Native, skb.TCP)
	sc.Flows = 2
	sc.Fabric = &fabric.Config{Hosts: 2}
	r := Run(sc)
	if r.WireErrors != 0 {
		t.Errorf("native fabric wire mode: %d integrity errors", r.WireErrors)
	}
}
