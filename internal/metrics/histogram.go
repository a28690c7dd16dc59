// Package metrics provides the measurement primitives used by every
// experiment: log-bucketed latency histograms with percentile queries,
// throughput counters, per-core CPU utilization snapshots and small
// statistics helpers (mean/stddev). All of it is allocation-light so the
// simulator can record per-packet without distorting benchmark results.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (typically nanoseconds). Buckets grow geometrically: each power of two is
// split into subBuckets linear sub-buckets, giving a bounded relative error
// of about 1/subBuckets while using a few KB of memory regardless of range.
type Histogram struct {
	counts []uint64
	n      uint64
	sum    float64
	min    int64
	max    int64
}

const (
	subBuckets = 32 // per power of two => <3.2% relative quantile error
	exactMax   = 2 * subBuckets
	numBuckets = exactMax + (63-6+1)*subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, numBuckets),
		min:    math.MaxInt64,
	}
}

// bucketOf maps a value to its bucket: values < 64 are exact; beyond that,
// each power of two is divided into 32 linear sub-buckets (HdrHistogram
// layout), keeping buckets contiguous.
func bucketOf(v int64) int {
	if v < exactMax {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // >= 6
	frac := (v - (1 << exp)) >> (exp - 5)
	return exactMax + (exp-6)*subBuckets + int(frac)
}

// bucketLow returns the smallest value mapping to bucket b (inverse of
// bucketOf, used to reconstruct quantiles).
func bucketLow(b int) int64 {
	if b < exactMax {
		return int64(b)
	}
	exp := 6 + (b-exactMax)/subBuckets
	frac := int64((b - exactMax) % subBuckets)
	return (1 << exp) + frac<<(exp-5)
}

// Record adds one sample. Negative samples are clamped to zero. Recording
// on a nil histogram is a no-op, so optional instrumentation can hold a nil
// *Histogram and record unconditionally.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n identical samples of value v in one update — used when one
// post-GRO skb stands for several wire segments and the distribution should
// count per segment. Negative samples are clamped to zero; a nil histogram
// or n == 0 is a no-op.
func (h *Histogram) RecordN(v int64, n uint64) {
	if h == nil || n == 0 {
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

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean of the samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest recorded sample (0 if empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 if empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) with
// relative error bounded by the bucket width (~3%). Returns 0 if empty.
func (h *Histogram) Quantile(q float64) int64 {
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

// Median is Quantile(0.5).
func (h *Histogram) Median() int64 { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
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

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p99=%d max=%d",
		h.n, h.Mean(), h.Median(), h.P99(), h.max)
}

// MeanStddev returns the mean and population standard deviation of xs.
func MeanStddev(xs []float64) (mean, stddev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}
