package netdev

import (
	"fmt"

	"mflow/internal/packet"
	"mflow/internal/skb"
)

// VXLAN is the overlay tunnel device's receive side: it terminates the
// outer UDP tunnel and recovers the inner Ethernet frame addressed to a
// container. In synthetic runs the transformation adjusts the skb's byte
// accounting; in wire mode it operates on the real RFC 7348 layout.
type VXLAN struct {
	// VNI is the VxLAN network identifier this device terminates.
	VNI uint32

	// Decapped counts processed frames; Errors counts frames whose wire
	// bytes failed to parse or carried the wrong VNI.
	Decapped uint64
	Errors   uint64
}

// Decap strips the outer encapsulation from s in place. It returns an error
// (leaving the skb untouched) if wire bytes are present and invalid.
//
// On the zero-copy path a GRO super-packet is a frag chain whose every part
// is one outer frame: decap validates each part's headers, then trims
// OverlayOverhead bytes off its front — a validated skb_pull per frame,
// no allocation, no payload copy. Validation of every part completes
// before any part is trimmed, so a bad frame leaves the skb whole.
func (v *VXLAN) Decap(s *skb.SKB) error {
	if !s.Encap {
		return fmt.Errorf("vxlan: decap of non-encapsulated %v", s)
	}
	parts := s.Parts()
	for i := 0; i < parts; i++ {
		part := s.Part(i)
		n, err := packet.FrameLen(part)
		if err != nil {
			v.Errors++
			return err
		}
		if n != len(part) {
			// A part holding several back-to-back frames (a pre-chained
			// buffer from a legacy caller) cannot be trimmed in place:
			// fall back to the copying decap for the whole stream.
			return v.decapLinearized(s)
		}
		vni, _, err := packet.DecapVXLAN(part)
		if err != nil {
			v.Errors++
			return err
		}
		if vni != v.VNI {
			v.Errors++
			return fmt.Errorf("vxlan: VNI %d arrived at device for VNI %d", vni, v.VNI)
		}
	}
	for i := 0; i < parts; i++ {
		s.TrimPartFront(i, packet.OverlayOverhead)
	}
	s.Encap = false
	s.WireLen -= packet.OverlayOverhead * s.Segs
	if s.WireLen < 0 {
		s.WireLen = 0
	}
	v.Decapped++
	return nil
}

// decapLinearized is the cold path for skbs whose head window carries
// several back-to-back outer frames (built by direct Data assignment, not
// the arena): materialize, decap with the copying walker, and replace the
// stream.
func (v *VXLAN) decapLinearized(s *skb.SKB) error {
	vni, inner, err := packet.DecapVXLANAll(s.Bytes())
	if err != nil {
		v.Errors++
		return err
	}
	if vni != v.VNI {
		v.Errors++
		return fmt.Errorf("vxlan: VNI %d arrived at device for VNI %d", vni, v.VNI)
	}
	s.SetBytes(inner)
	s.Encap = false
	s.WireLen -= packet.OverlayOverhead * s.Segs
	if s.WireLen < 0 {
		s.WireLen = 0
	}
	v.Decapped++
	return nil
}

// RxDevice packages the decap action with its cost model as a Device.
func (v *VXLAN) RxDevice(cost Cost) *Device {
	return &Device{
		Name: "vxlan",
		Cost: cost,
		Action: func(s *skb.SKB) {
			// Errors are counted on the device; in the simulated data
			// path all frames are well-formed by construction.
			_ = v.Decap(s)
		},
	}
}
