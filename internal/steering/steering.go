// Package steering enumerates and describes the packet-steering systems the
// paper evaluates: the vanilla single-core path, Linux RPS, FALCON's device-
// and function-level softirq pipelining, and MFLOW. It provides the
// placement plans (which softirq stage group runs on which core) that the
// overlay topology builder realizes.
package steering

import (
	"fmt"

	"mflow/internal/skb"
)

// System identifies a packet-processing configuration under test.
type System int

// The evaluated systems (paper §V: native, vanilla overlay, RPS, FALCON,
// MFLOW; FALCON in both its device-level and function-level modes).
const (
	Native System = iota
	Vanilla
	RPS
	FalconDev
	FalconFunc
	MFlow
	// Slim (NSDI'19) is an extension baseline from the paper's related
	// work: it bypasses the virtual bridge and network device entirely,
	// mapping container connections onto the host network — near-native
	// for TCP, but inapplicable to connectionless protocols (UDP falls
	// back to the standard overlay).
	Slim
)

// Systems lists every configuration the paper evaluates, in presentation
// order. Slim is an extension baseline, listed in ExtendedSystems.
var Systems = []System{Native, Vanilla, RPS, FalconDev, FalconFunc, MFlow}

// ExtendedSystems adds the related-work baselines implemented beyond the
// paper's own evaluation.
var ExtendedSystems = append(append([]System{}, Systems...), Slim)

// String names the system as the paper's figures do.
func (s System) String() string {
	switch s {
	case Native:
		return "native"
	case Vanilla:
		return "vanilla"
	case RPS:
		return "rps"
	case FalconDev:
		return "falcon-dev"
	case FalconFunc:
		return "falcon-func"
	case MFlow:
		return "mflow"
	case Slim:
		return "slim"
	}
	return fmt.Sprintf("system(%d)", int(s))
}

// ParseSystem resolves a name produced by String.
func ParseSystem(name string) (System, error) {
	for _, s := range ExtendedSystems {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("steering: unknown system %q", name)
}

// HandoffLabel describes how the system moves packets between pipeline
// stages — the mechanism behind any "handoff" segments in a causal latency
// breakdown (mflowinspect prints it under each system's table).
func HandoffLabel(s System) string {
	switch s {
	case Native, Slim:
		return "none (single softirq)"
	case Vanilla:
		return "softirq re-raise (same core)"
	case RPS:
		return "RPS steer + IPI"
	case FalconDev, FalconFunc:
		return "explicit pipeline handoff"
	case MFlow:
		return "split dispatch + IPI"
	}
	return "unknown"
}

// Stage names the softirq work units the plans place on cores. They map to
// the paper's Fig. 2/3 pipeline: the pNIC softirq (skb allocation, GRO,
// outer IP/UDP), the VxLAN softirq (decapsulation), and the veth softirq
// (bridge, veth crossing, inner IP + transport).
type Stage int

// Stage groups in pipeline order.
const (
	StageAlloc Stage = iota // driver poll + skb allocation
	StageGRO                // generic receive offload + outer IP/UDP parse
	StageVXLAN              // tunnel decapsulation
	StageInner              // bridge + veth + inner IP + L4
)

// String names the stage for CPU accounting.
func (st Stage) String() string {
	switch st {
	case StageAlloc:
		return "alloc"
	case StageGRO:
		return "gro"
	case StageVXLAN:
		return "vxlan"
	case StageInner:
		return "veth"
	}
	return fmt.Sprintf("stage(%d)", int(st))
}

// Group is a set of stages fused into one softirq worker on one core.
// CoreOff is an offset into the flow's kernel-core allocation (0 = the core
// its NIC queue IRQ lands on).
type Group struct {
	Stages  []Stage
	CoreOff int
}

// Plan is the per-flow stage placement for one baseline system. MFLOW is
// not expressed as a Plan — its splitting topology is built by the overlay
// package from an mflow configuration.
type Plan struct {
	System System
	Groups []Group
	// Handoff reports whether crossing between groups pays FALCON's
	// explicit per-skb pipeline handoff cost.
	Handoff bool
	// PreGROHandoff reports whether the first handoff happens before GRO
	// (per wire segment, FALCON-func's expensive edge).
	PreGROHandoff bool
}

// PlanFor returns the placement for a baseline system. Overlay flows have
// the full four-stage pipeline; native flows collapse VXLAN away (the plan
// simply omits it).
//
//	slim        : like native for TCP (the overlay is bypassed); for UDP
//	              Slim does not apply and the plan degrades to vanilla
//	vanilla     : [alloc gro vxlan inner] on one core (the kernel default)
//	rps         : [alloc gro] on the IRQ core, [vxlan inner] on the RPS core
//	falcon-dev  : [alloc gro] | [vxlan] | [inner] on three cores
//	falcon-func : [alloc] | [gro] | [vxlan] | [inner] on four cores
func PlanFor(sys System, proto skb.Proto) Plan {
	switch sys {
	case Slim:
		if proto == skb.UDP {
			// Slim cannot carry connectionless protocols (paper §VI);
			// UDP traffic stays on the standard overlay.
			return PlanFor(Vanilla, proto)
		}
		return Plan{System: sys, Groups: []Group{
			{Stages: []Stage{StageAlloc, StageGRO, StageInner}, CoreOff: 0},
		}}
	case Native:
		return Plan{System: sys, Groups: []Group{
			{Stages: []Stage{StageAlloc, StageGRO, StageInner}, CoreOff: 0},
		}}
	case Vanilla:
		return Plan{System: sys, Groups: []Group{
			{Stages: []Stage{StageAlloc, StageGRO}, CoreOff: 0},
			{Stages: []Stage{StageVXLAN}, CoreOff: 0},
			{Stages: []Stage{StageInner}, CoreOff: 0},
		}}
	case RPS:
		return Plan{System: sys, Groups: []Group{
			{Stages: []Stage{StageAlloc, StageGRO}, CoreOff: 0},
			{Stages: []Stage{StageVXLAN}, CoreOff: 1},
			{Stages: []Stage{StageInner}, CoreOff: 1},
		}}
	case FalconDev:
		return Plan{System: sys, Handoff: true, Groups: []Group{
			{Stages: []Stage{StageAlloc, StageGRO}, CoreOff: 0},
			{Stages: []Stage{StageVXLAN}, CoreOff: 1},
			{Stages: []Stage{StageInner}, CoreOff: 2},
		}}
	case FalconFunc:
		return Plan{System: sys, Handoff: true, PreGROHandoff: true, Groups: []Group{
			{Stages: []Stage{StageAlloc}, CoreOff: 0},
			{Stages: []Stage{StageGRO}, CoreOff: 1},
			{Stages: []Stage{StageVXLAN}, CoreOff: 2},
			{Stages: []Stage{StageInner}, CoreOff: 3},
		}}
	default:
		_ = proto
		panic(fmt.Sprintf("steering: no static plan for %v", sys))
	}
}
