package steering

import (
	"testing"

	"mflow/internal/skb"
)

func TestSystemStringsRoundtrip(t *testing.T) {
	for _, s := range Systems {
		got, err := ParseSystem(s.String())
		if err != nil || got != s {
			t.Errorf("roundtrip %v failed: %v %v", s, got, err)
		}
	}
	if _, err := ParseSystem("bogus"); err == nil {
		t.Error("bogus system must not parse")
	}
	if System(99).String() == "" {
		t.Error("unknown system should still format")
	}
}

func TestPlanShapes(t *testing.T) {
	cases := []struct {
		sys      System
		groups   int
		handoff  bool
		preGRO   bool
		hasVXLAN bool
	}{
		{Native, 1, false, false, false},
		{Vanilla, 3, false, false, true},
		{RPS, 3, false, false, true},
		{FalconDev, 3, true, false, true},
		{FalconFunc, 4, true, true, true},
	}
	for _, c := range cases {
		p := PlanFor(c.sys, skb.TCP)
		if len(p.Groups) != c.groups {
			t.Errorf("%v: %d groups, want %d", c.sys, len(p.Groups), c.groups)
		}
		if p.Handoff != c.handoff || p.PreGROHandoff != c.preGRO {
			t.Errorf("%v: handoff flags %v/%v", c.sys, p.Handoff, p.PreGROHandoff)
		}
		found := false
		for _, g := range p.Groups {
			for _, st := range g.Stages {
				if st == StageVXLAN {
					found = true
				}
			}
		}
		if found != c.hasVXLAN {
			t.Errorf("%v: vxlan presence %v, want %v", c.sys, found, c.hasVXLAN)
		}
	}
}

func TestPlanForMFlowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PlanFor(MFlow) must panic — mflow is built dynamically")
		}
	}()
	PlanFor(MFlow, skb.TCP)
}

func TestVanillaAllOnOneCore(t *testing.T) {
	p := PlanFor(Vanilla, skb.UDP)
	for _, g := range p.Groups {
		if g.CoreOff != 0 {
			t.Fatal("vanilla must squeeze every stage onto one core")
		}
	}
}

func TestStageNames(t *testing.T) {
	want := map[Stage]string{StageAlloc: "alloc", StageGRO: "gro", StageVXLAN: "vxlan", StageInner: "veth"}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d name %q, want %q", st, st.String(), name)
		}
	}
}
