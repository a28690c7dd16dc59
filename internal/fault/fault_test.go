package fault

import (
	"math"
	"testing"

	"mflow/internal/skb"
)

// meanLoss is the Gilbert–Elliott channel's stationary packet-loss
// probability: the analytic oracle for the burst-loss statistics.
func meanLoss(g *GilbertElliott) float64 {
	if g == nil {
		return 0
	}
	den := g.PGoodBad + g.PBadGood
	if den <= 0 {
		return g.LossGood
	}
	bad := g.PGoodBad / den
	return (1-bad)*g.LossGood + bad*g.LossBad
}

// sink records everything delivered through a tap.
type sink struct {
	got []*skb.SKB
}

func (s *sink) Deliver(sk *skb.SKB) bool {
	s.got = append(s.got, sk)
	return true
}

func frames(n int) []*skb.SKB {
	out := make([]*skb.SKB, n)
	for i := range out {
		out[i] = &skb.SKB{FlowID: 1, Seq: uint64(i), Segs: 1, PayloadLen: 1448}
	}
	return out
}

func TestEnabledSemantics(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Fatal("nil plan must be disabled")
	}
	if (&Plan{}).Enabled() {
		t.Fatal("zero plan must be disabled")
	}
	if (&Plan{Seed: 7, RTO: DefaultRTO, OFOCap: 10}).Enabled() {
		t.Fatal("recovery knobs alone must not enable injection")
	}
	if (&Plan{Wire: Profile{Burst: &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.1}}}).Enabled() {
		t.Fatal("burst model with zero loss probs must be disabled")
	}
	for _, p := range []*Plan{
		{Wire: Profile{Drop: 0.01}},
		{Wire: Profile{Dup: 0.01}},
		{Wire: Profile{Corrupt: 0.01}},
		{Wire: Profile{Burst: &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.1, LossBad: 1}}},
		{RingDrop: 0.01},
		{BacklogDrop: 0.01},
		{SockDrop: 0.01},
		{StallProb: 0.01},
		{IRQJitter: 0.1},
	} {
		if !p.Enabled() {
			t.Fatalf("plan %+v should be enabled", *p)
		}
	}
}

func TestDefaults(t *testing.T) {
	var p *Plan
	if p.RTOOrDefault() != DefaultRTO || p.GapTimeoutOrDefault() != DefaultGapTimeout || p.OFOCapOrDefault() != DefaultOFOCap {
		t.Fatal("nil plan must yield defaults")
	}
	q := &Plan{RTO: 123, GapTimeout: 456, OFOCap: 7}
	if q.RTOOrDefault() != 123 || q.GapTimeoutOrDefault() != 456 || q.OFOCapOrDefault() != 7 {
		t.Fatal("set knobs must be returned verbatim")
	}
}

func TestDeterministicDecisions(t *testing.T) {
	plan := Plan{Wire: Profile{Drop: 0.05, Dup: 0.02, Corrupt: 0.01}, RingDrop: 0.03}
	run := func() ([]uint64, uint64) {
		in := NewInjector(plan, 42)
		s := &sink{}
		tap := in.Wrap(s)
		for _, f := range frames(5000) {
			tap.Deliver(f)
		}
		var rings uint64
		for i := 0; i < 1000; i++ {
			if in.DropRing() {
				rings++
			}
		}
		seqs := make([]uint64, len(s.got))
		for i, f := range s.got {
			seqs[i] = f.Seq
		}
		return seqs, rings
	}
	a, ra := run()
	b, rb := run()
	if len(a) != len(b) || ra != rb {
		t.Fatalf("same seed diverged: %d vs %d delivered, %d vs %d ring drops", len(a), len(b), ra, rb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c, _ := run2(plan, 43)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical decisions")
		}
	}
}

func run2(plan Plan, seed uint64) ([]uint64, uint64) {
	in := NewInjector(plan, seed)
	s := &sink{}
	tap := in.Wrap(s)
	for _, f := range frames(5000) {
		tap.Deliver(f)
	}
	seqs := make([]uint64, len(s.got))
	for i, f := range s.got {
		seqs[i] = f.Seq
	}
	return seqs, in.Total()
}

func TestUniformDropRate(t *testing.T) {
	const n, p = 200000, 0.01
	in := NewInjector(Plan{Wire: Profile{Drop: p}}, 1)
	s := &sink{}
	tap := in.Wrap(s)
	for _, f := range frames(n) {
		tap.Deliver(f)
	}
	got := float64(in.WireDrops) / n
	if math.Abs(got-p) > p/2 {
		t.Fatalf("uniform drop rate %.4f, want ≈ %.4f", got, p)
	}
	if in.Total() != in.WireDrops || in.Drops() != in.WireDrops {
		t.Fatalf("counter accounting off: total=%d drops=%d wire=%d", in.Total(), in.Drops(), in.WireDrops)
	}
}

func TestGilbertElliottBurstStatistics(t *testing.T) {
	// Mean burst ≈ 1/PBadGood = 10 packets; stationary loss ≈ meanLoss(g).
	g := &GilbertElliott{PGoodBad: 0.002, PBadGood: 0.1, LossBad: 0.75}
	const n = 400000
	in := NewInjector(Plan{Wire: Profile{Burst: g}}, 9)
	s := &sink{}
	tap := in.Wrap(s)
	dropped := make([]bool, n)
	for i, f := range frames(n) {
		before := in.BurstDrops
		tap.Deliver(f)
		dropped[i] = in.BurstDrops > before
	}
	want := meanLoss(g)
	got := float64(in.BurstDrops) / n
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("GE stationary loss %.4f, want ≈ %.4f", got, want)
	}
	// Burstiness: losses must cluster far more than a uniform channel with
	// the same rate — measure P(drop[i+1] | drop[i]).
	var pairs, both int
	for i := 0; i+1 < n; i++ {
		if dropped[i] {
			pairs++
			if dropped[i+1] {
				both++
			}
		}
	}
	cond := float64(both) / float64(pairs)
	if cond < 3*want {
		t.Fatalf("loss not bursty: P(drop|drop)=%.3f vs stationary %.4f", cond, want)
	}
}

func TestDuplicationDeepCopies(t *testing.T) {
	in := NewInjector(Plan{Wire: Profile{Dup: 1}}, 3)
	s := &sink{}
	tap := in.Wrap(s)
	orig := &skb.SKB{FlowID: 1, Seq: 5, Segs: 1, PayloadLen: 100, Data: []byte{1, 2, 3}}
	tap.Deliver(orig)
	if len(s.got) != 2 || in.WireDups != 1 {
		t.Fatalf("dup=1 should deliver twice, got %d (dups=%d)", len(s.got), in.WireDups)
	}
	clone, second := s.got[0], s.got[1]
	if clone == second {
		t.Fatal("duplicate must be a distinct skb")
	}
	if clone.Seq != orig.Seq || string(clone.Data) != string(orig.Data) {
		t.Fatal("duplicate must carry the same seq and bytes")
	}
	clone.Data[0] = 0xee
	if orig.Data[0] == 0xee {
		t.Fatal("duplicate shares the wire-byte buffer with the original")
	}
}

func TestCorruptionFlipsHeaderByteOrDrops(t *testing.T) {
	in := NewInjector(Plan{Wire: Profile{Corrupt: 1}}, 4)
	s := &sink{}
	tap := in.Wrap(s)

	data := make([]byte, 60)
	orig := append([]byte(nil), data...)
	withBytes := &skb.SKB{FlowID: 1, Seq: 1, Data: data}
	if !tap.Deliver(withBytes) || len(s.got) != 1 {
		t.Fatal("corrupted wire frame must still be delivered (detectable downstream)")
	}
	diff, diffAt := 0, -1
	for i := range data {
		if data[i] != orig[i] {
			diff++
			diffAt = i
		}
	}
	if diff != 1 {
		t.Fatalf("corruption must flip exactly one byte, flipped %d", diff)
	}
	if diffAt < 14 || diffAt >= 34 {
		t.Fatalf("corruption at offset %d, want inside the outer IPv4 header [14,34)", diffAt)
	}

	noBytes := &skb.SKB{FlowID: 1, Seq: 2}
	if tap.Deliver(noBytes) {
		t.Fatal("corrupting a byteless frame must drop it")
	}
	if in.WireCorrupts != 2 {
		t.Fatalf("corrupt counter = %d, want 2", in.WireCorrupts)
	}
}

func TestPointDropRates(t *testing.T) {
	in := NewInjector(Plan{RingDrop: 0.02, BacklogDrop: 0.03, SockDrop: 0.05}, 8)
	const n = 100000
	for i := 0; i < n; i++ {
		in.DropRing()
		in.DropBacklog()
		in.DropSock()
	}
	check := func(name string, got uint64, p float64) {
		rate := float64(got) / n
		if math.Abs(rate-p) > p/2 {
			t.Fatalf("%s rate %.4f, want ≈ %.4f", name, rate, p)
		}
	}
	check("ring", in.RingDrops, 0.02)
	check("backlog", in.BacklogDrops, 0.03)
	check("sock", in.SockDrops, 0.05)
	if in.Total() != in.RingDrops+in.BacklogDrops+in.SockDrops {
		t.Fatal("Total must sum all point counters")
	}
}

func TestMeanLoss(t *testing.T) {
	if meanLoss(&GilbertElliott{LossGood: 0.25}) != 0.25 {
		t.Fatal("degenerate GE (no transitions) must report LossGood")
	}
	g := &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.1, LossBad: 1}
	if math.Abs(meanLoss(g)-0.5) > 1e-12 {
		t.Fatalf("meanLoss = %v, want 0.5", meanLoss(g))
	}
	var nilG *GilbertElliott
	if meanLoss(nilG) != 0 {
		t.Fatal("nil GE must report 0")
	}
}

// TestZeroBurstIsNil: a zero Gilbert–Elliott channel never drops, so it
// must not draw either — a plan with it decides every frame exactly like
// the same plan with a nil Burst (the scenario key reads nil as zero).
func TestZeroBurstIsNil(t *testing.T) {
	plan := Plan{Wire: Profile{Drop: 0.2, Dup: 0.1, Corrupt: 0.1}}
	want, wantTotal := run2(plan, 7)
	plan.Wire.Burst = &GilbertElliott{}
	got, gotTotal := run2(plan, 7)
	if gotTotal != wantTotal || len(got) != len(want) {
		t.Fatalf("zero burst changed decisions: %d faults, %d delivered; nil burst: %d, %d",
			gotTotal, len(got), wantTotal, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery %d differs: seq %d vs %d", i, got[i], want[i])
		}
	}
}
