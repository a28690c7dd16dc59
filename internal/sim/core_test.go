package sim

import (
	"math"
	"testing"
)

func TestCoreSerializesWork(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	s.At(0, func() {
		st1, en1 := c.Exec(100, "a")
		st2, en2 := c.Exec(50, "b")
		if st1 != 0 || en1 != 100 {
			t.Errorf("first exec [%v,%v], want [0,100]", st1, en1)
		}
		if st2 != 100 || en2 != 150 {
			t.Errorf("second exec [%v,%v], want [100,150]", st2, en2)
		}
	})
	s.Run()
	if c.BusyTotal() != 150 {
		t.Errorf("busy total %v, want 150", c.BusyTotal())
	}
	by := c.BusyByTag()
	if by["a"] != 100 || by["b"] != 50 {
		t.Errorf("per-tag accounting wrong: %v", by)
	}
}

func TestCoreStartsNoEarlierThanNow(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	s.At(0, func() { c.Exec(10, "a") }) // busy until 10
	s.At(500, func() {
		st, _ := c.Exec(10, "a")
		if st != 500 {
			t.Errorf("idle core started work at %v, want 500 (now)", st)
		}
	})
	s.Run()
}

func TestCoreSpeedScalesCost(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	c.Speed = 0.5
	s.At(0, func() {
		_, end := c.Exec(100, "a")
		if end != 200 {
			t.Errorf("half-speed core finished at %v, want 200", end)
		}
	})
	s.Run()
}

// TestCoreRunSchedulesCompletion pins the completion idiom: Exec returns
// the work's end instant and the caller schedules its continuation there.
func TestCoreRunSchedulesCompletion(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var doneAt Time = -1
	s.At(0, func() {
		_, end := c.Exec(100, "a")
		s.At(end, func() { doneAt = s.Now() })
	})
	s.Run()
	if doneAt != 100 {
		t.Errorf("completion callback ran at %v, want 100", doneAt)
	}
}

func TestCoreJitterMeanRoughlyPreserved(t *testing.T) {
	s := NewScheduler(42)
	c := NewCore(1, s)
	c.JitterAmp = 0.1
	var total Duration
	s.At(0, func() {
		for i := 0; i < 10000; i++ {
			st, en := c.Exec(1000, "a")
			total += en.Sub(st)
		}
	})
	s.Run()
	mean := float64(total) / 10000
	// lognormal with sigma 0.1 has mean exp(sigma^2/2) ~= 1.005
	if math.Abs(mean-1000) > 50 {
		t.Errorf("jittered mean %.1f, want within 5%% of 1000", mean)
	}
}

func TestCoreInterferenceAddsDelay(t *testing.T) {
	s := NewScheduler(42)
	c := NewCore(1, s)
	c.InterferenceProb = 0.5
	c.InterferenceMean = 1000
	var total Duration
	s.At(0, func() {
		for i := 0; i < 2000; i++ {
			st, en := c.Exec(100, "a")
			total += en.Sub(st)
		}
	})
	s.Run()
	mean := float64(total) / 2000
	// expected: 100 + 0.5*1000 = 600
	if mean < 400 || mean > 800 {
		t.Errorf("interfered mean %.1f, want near 600", mean)
	}
}

func TestCoreUtilization(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	s.At(0, func() { c.Exec(250, "a") })
	s.Run()
	u := c.Utilization(0, 0, 1000)
	if math.Abs(u-0.25) > 1e-9 {
		t.Errorf("utilization %.3f, want 0.25", u)
	}
}

func TestNewCoresIDs(t *testing.T) {
	s := NewScheduler(1)
	cores := NewCores(4, s)
	for i, c := range cores {
		if c.ID != i {
			t.Errorf("core %d has ID %d", i, c.ID)
		}
		if c.Speed != 1.0 {
			t.Errorf("core %d speed %v, want 1.0", i, c.Speed)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	cdiff := NewRand(100)
	same := true
	a2 := NewRand(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != cdiff.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(7)
	var sum, sumsq float64
	n := 50000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Errorf("normal deviates: mean %.4f var %.4f, want ~0/~1", mean, variance)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if m := sum / float64(n); math.Abs(m-1) > 0.05 {
		t.Errorf("exponential mean %.4f, want ~1", m)
	}

	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("Intn(10) bucket %d has %d hits, want ~%d", d, c, n/10)
		}
	}
}
