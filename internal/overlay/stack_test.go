package overlay

import (
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// TestStackSendEncapsulatesOnlyOverlayPaths pins Stack.Send to the flow's
// own sending chain: only overlay paths wrap the frame in VxLAN (and their
// vxlan device removes it again), so every system's single-segment message
// reaches the socket decapsulated at payload + 52 header bytes, with exactly
// the payload counted as delivered to user space. Slim's TCP
// path has no VxLAN device, so a frame encapsulated there would reach the
// socket still wrapped.
func TestStackSendEncapsulatesOnlyOverlayPaths(t *testing.T) {
	for _, sys := range steering.ExtendedSystems {
		st := NewStack(Scenario{System: sys, Proto: skb.TCP, Flows: 1})
		var got []skb.SKB
		st.h.flows[0].sock.OnMessage = func(_ uint64, s *skb.SKB, _ sim.Time) {
			got = append(got, skb.SKB{Encap: s.Encap, WireLen: s.WireLen})
		}
		st.Send(0, 1000)
		st.Sched().RunUntil(sim.Time(sim.Millisecond))
		if len(got) != 1 {
			t.Fatalf("%s: %d messages delivered, want 1", sys, len(got))
		}
		if got[0].Encap || got[0].WireLen != 1000+52 {
			t.Errorf("%s: socket got encap=%v wire=%d B, want a plain %d B frame",
				sys, got[0].Encap, got[0].WireLen, 1000+52)
		}
		if b := st.h.flows[0].sock.Bytes; b != 1000 {
			t.Errorf("%s: delivered %d bytes, want 1000", sys, b)
		}
	}
}
