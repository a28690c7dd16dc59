package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// eagerHistogram is the histogram as it was before buckets grew on demand:
// all numBuckets counters allocated up front. It is the reference the grown
// histogram must match bit for bit.
type eagerHistogram struct {
	counts []uint64
	n      uint64
	sum    float64
	min    int64
	max    int64
}

func newEager() *eagerHistogram {
	return &eagerHistogram{counts: make([]uint64, numBuckets), min: math.MaxInt64}
}

func (h *eagerHistogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b] += n
	h.n += n
	h.sum += float64(v) * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *eagerHistogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

func (h *eagerHistogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > rank {
			lo := bucketLow(b)
			hi := bucketLow(b + 1)
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

func (h *eagerHistogram) Merge(other *eagerHistogram) {
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.n > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

func (h *eagerHistogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n, h.sum, h.min, h.max = 0, 0, math.MaxInt64, 0
}

// sameAsEager reports the first summary or quantile on which h and ref
// disagree.
func sameAsEager(t *testing.T, what string, h *Histogram, ref *eagerHistogram) {
	t.Helper()
	if h.Count() != ref.n || h.Sum() != ref.sum || h.Min() != ref.Min() || h.Max() != ref.max {
		t.Fatalf("%s: count/sum/min/max %d/%g/%d/%d, reference %d/%g/%d/%d",
			what, h.Count(), h.Sum(), h.Min(), h.Max(), ref.n, ref.sum, ref.Min(), ref.max)
	}
	if h.Median() != ref.Quantile(0.5) || h.P99() != ref.Quantile(0.99) {
		t.Fatalf("%s: p50/p99 %d/%d, reference %d/%d",
			what, h.Median(), h.P99(), ref.Quantile(0.5), ref.Quantile(0.99))
	}
	for i := 0; i <= 1000; i++ {
		q := float64(i) / 1000
		if got, want := h.Quantile(q), ref.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%g) = %d, reference %d", what, q, got, want)
		}
	}
}

// randomSample draws a value spread over every magnitude 0…2^62, so the
// grown histogram is exercised from its first bucket to its last.
func randomSample(rng *rand.Rand) int64 {
	return rng.Int63n(1 << 62 >> rng.Intn(62))
}

// fillBoth records the same n random samples (with random RecordN weights,
// and now and then a negative one) into both histograms, capped at maxBits
// significant bits so different fills grow to different lengths.
func fillBoth(rng *rand.Rand, h *Histogram, ref *eagerHistogram, n int, maxBits uint) {
	for i := 0; i < n; i++ {
		v := randomSample(rng) >> (62 - maxBits)
		if rng.Intn(50) == 0 {
			v = -v
		}
		w := uint64(1)
		if rng.Intn(3) == 0 {
			w = uint64(rng.Intn(1000))
		}
		h.RecordN(v, w)
		ref.RecordN(v, w)
	}
}

func TestGrownHistogramMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		h, ref := NewHistogram(), newEager()
		fillBoth(rng, h, ref, 1+rng.Intn(2000), uint(rng.Intn(63)))
		sameAsEager(t, "record", h, ref)
		if len(h.counts) > numBuckets || (h.Count() > 0 && len(h.counts) <= bucketOf(h.Max())) {
			t.Fatalf("grown to %d buckets for max %d", len(h.counts), h.Max())
		}
	}
}

func TestGrownHistogramMergeMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		// a stays short, b grows long: merge in both directions.
		a, refA := NewHistogram(), newEager()
		b, refB := NewHistogram(), newEager()
		fillBoth(rng, a, refA, 1+rng.Intn(500), uint(rng.Intn(12)))
		fillBoth(rng, b, refB, 1+rng.Intn(500), 20+uint(rng.Intn(43)))
		ab, refAB := NewHistogram(), newEager()
		ab.Merge(a)
		ab.Merge(b)
		refAB.Merge(refA)
		refAB.Merge(refB)
		sameAsEager(t, "short into long", ab, refAB)

		b.Merge(a)
		refB.Merge(refA)
		sameAsEager(t, "short into long", b, refB)
		a.Merge(b)
		refA.Merge(refB)
		sameAsEager(t, "long into short", a, refA)
	}
}

func TestGrownHistogramReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, ref := NewHistogram(), newEager()
	fillBoth(rng, h, ref, 1000, 62)
	h.Reset()
	ref.Reset()
	sameAsEager(t, "reset", h, ref)
	if h.String() != "n=0 mean=0 p50=0 p99=0 max=0" {
		t.Errorf("reset String = %q", h.String())
	}
	fillBoth(rng, h, ref, 1000, 10)
	sameAsEager(t, "refill after reset", h, ref)
}

// TestHistogramSizedToRange pins the memory claim: a histogram holds
// counters only up to the largest bucket it has seen.
func TestHistogramSizedToRange(t *testing.T) {
	h := NewHistogram()
	if len(h.counts) != 0 {
		t.Fatalf("new histogram holds %d buckets", len(h.counts))
	}
	for v := int64(0); v < exactMax; v++ {
		h.Record(v)
	}
	if len(h.counts) != exactMax {
		t.Errorf("depths 0..63 grew to %d buckets, want %d", len(h.counts), exactMax)
	}
	h.Record(math.MaxInt64)
	if len(h.counts) > numBuckets {
		t.Errorf("grew past numBuckets: %d", len(h.counts))
	}
}
