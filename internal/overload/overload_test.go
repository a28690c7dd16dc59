package overload

import (
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

func TestConfigEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config must be disabled")
	}
	if (&Config{}).Enabled() {
		t.Error("zero config must be disabled")
	}
	if !(&Config{MemBytes: 1}).Enabled() {
		t.Error("config with a budget must be enabled")
	}
	if !(&Config{IRQPerFrame: true}).Enabled() {
		t.Error("config with IRQPerFrame must be enabled")
	}
}

func TestConfigNormalizedDefaults(t *testing.T) {
	c := Config{MemBytes: 100, CoDelTarget: 10}.Normalized()
	if c.Tick <= 0 || c.PressureLow <= 0 || c.PressureHigh <= c.PressureLow ||
		c.MinBudget <= 0 || c.CoDelInterval != 100 || c.SoftirqThreshold <= 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestProfilesEnabled(t *testing.T) {
	for name, cfg := range Profiles() {
		if !cfg.Enabled() {
			t.Errorf("profile %q is not enabled", name)
		}
	}
}

func TestAccountantChargeRelease(t *testing.T) {
	a := NewAccountant(Config{MemBytes: 3000, MemSKBs: 2}.Normalized())
	s1 := &skb.SKB{WireLen: 1500}
	s2 := &skb.SKB{WireLen: 1500}
	s3 := &skb.SKB{WireLen: 100}
	if !a.Admit(s1) || !a.Admit(s2) {
		t.Fatal("within-budget admissions rejected")
	}
	if !s1.Accounted || s1.MemCharge != 1500 {
		t.Errorf("admitted skb not stamped: %+v", s1)
	}
	if a.Admit(s3) {
		t.Error("third skb should exceed MemSKBs=2")
	}
	if a.AdmissionDropped != 1 {
		t.Errorf("AdmissionDropped = %d, want 1", a.AdmissionDropped)
	}
	if a.bytes != 3000 || a.skbs != 2 || a.PeakBytes != 3000 {
		t.Errorf("account state bytes=%d skbs=%d peak=%d", a.bytes, a.skbs, a.PeakBytes)
	}
	// GRO growth after admission must not unbalance the account: the skb
	// releases the stamped charge, not its current WireLen.
	s1.WireLen += 4500
	a.Release(s1)
	a.Release(s1) // double release is a no-op
	a.Release(s2)
	if a.bytes != 0 || a.skbs != 0 {
		t.Errorf("account did not drain: bytes=%d skbs=%d", a.bytes, a.skbs)
	}
	if a.Charged != 2 || a.Released != 2 {
		t.Errorf("charged=%d released=%d, want 2/2", a.Charged, a.Released)
	}
	// Release of a never-admitted skb is a no-op.
	a.Release(s3)
	if a.Released != 2 {
		t.Error("unaccounted release must be ignored")
	}
}

func TestAccountantPressureLevels(t *testing.T) {
	a := NewAccountant(Config{MemBytes: 1000}.Normalized())
	if a.Pressure() != PressureNone {
		t.Errorf("empty account pressure = %d", a.Pressure())
	}
	a.Admit(&skb.SKB{WireLen: 500})
	if a.Pressure() != PressureModerate {
		t.Errorf("50%% usage pressure = %d, want moderate", a.Pressure())
	}
	a.Admit(&skb.SKB{WireLen: 400})
	if a.Pressure() != PressureCritical {
		t.Errorf("90%% usage pressure = %d, want critical", a.Pressure())
	}
}

func TestAccountantNilSafe(t *testing.T) {
	var a *Accountant
	s := &skb.SKB{WireLen: 1}
	if !a.Admit(s) {
		t.Error("nil accountant must admit everything")
	}
	a.Release(s)
	if a.Pressure() != PressureNone || a.Usage() != 0 {
		t.Error("nil accountant must report zero state")
	}
}

func TestCoDelBelowTargetNeverDrops(t *testing.T) {
	c := &CoDel{Target: 100, Interval: 1000}
	for now := sim.Time(0); now < 100000; now += 10 {
		if c.Drop(50, now) {
			t.Fatalf("dropped a below-target sojourn at %v", now)
		}
	}
	if c.Drops != 0 {
		t.Errorf("Drops = %d, want 0", c.Drops)
	}
}

func TestCoDelSustainedStandingQueueDrops(t *testing.T) {
	c := &CoDel{Target: 100, Interval: 1000}
	// Sojourn pinned above target: no drop during the first interval,
	// then the entry drop, then sqrt-law spaced drops.
	var drops []sim.Time
	for now := sim.Time(0); now < 10000; now += 10 {
		if c.Drop(500, now) {
			drops = append(drops, now)
		}
	}
	if len(drops) < 3 {
		t.Fatalf("sustained standing queue produced only %d drops", len(drops))
	}
	if drops[0] < 1000 {
		t.Errorf("first drop at %v, before a full interval elapsed", drops[0])
	}
	// The control law accelerates: later inter-drop gaps must not exceed
	// earlier ones.
	for i := 2; i < len(drops); i++ {
		if gap, prev := drops[i]-drops[i-1], drops[i-1]-drops[i-2]; gap > prev {
			t.Errorf("drop spacing grew: %v then %v", prev, gap)
		}
	}
	if c.Drops != uint64(len(drops)) {
		t.Errorf("Drops = %d, want %d", c.Drops, len(drops))
	}
}

func TestCoDelRecoversWhenQueueDrains(t *testing.T) {
	c := &CoDel{Target: 100, Interval: 1000}
	for now := sim.Time(0); now < 5000; now += 10 {
		c.Drop(500, now)
	}
	if !c.dropping {
		t.Fatal("expected drop state after sustained overshoot")
	}
	if c.Drop(10, 5000) {
		t.Error("below-target sojourn dropped")
	}
	if c.dropping {
		t.Error("drop state must clear once sojourn falls below target")
	}
	// And it must take a fresh full interval to re-enter.
	if c.Drop(500, 5100) || c.Drop(500, 5200) {
		t.Error("re-entry dropped before a full interval above target")
	}
}

func TestCoDelNilAndDisabled(t *testing.T) {
	var c *CoDel
	if c.Drop(1000, 0) {
		t.Error("nil CoDel must never drop")
	}
	d := &CoDel{}
	if d.Drop(1000, 0) {
		t.Error("zero-target CoDel must never drop")
	}
}

// BenchmarkOverloadOff pins the disabled path at zero allocations: the
// nil-safe operations every packet would touch when overload control is
// off must cost nil checks only. The CI bench gate enforces 0 allocs/op.
func BenchmarkOverloadOff(b *testing.B) {
	var cfg *Config
	var a *Accountant
	var c *CoDel
	s := &skb.SKB{WireLen: 1500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cfg.Enabled() {
			b.Fatal("disabled config reported enabled")
		}
		if !a.Admit(s) {
			b.Fatal("nil accountant rejected")
		}
		a.Release(s)
		if c.Drop(1000, sim.Time(i)) {
			b.Fatal("nil CoDel dropped")
		}
	}
}
