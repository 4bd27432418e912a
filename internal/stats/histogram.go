// Package stats provides the measurement substrate shared by the simulator,
// the load balancer, and the benchmark harness: HDR-style log-linear
// histograms, streaming quantiles over sliding windows, exponentially
// weighted moving averages, and time-series recording.
//
// All types are safe for single-goroutine use; concurrent wrappers are
// provided where the live proxy needs them.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Histogram is an HDR-style log-linear histogram of time.Duration values.
//
// The value range is divided into exponential "chunks" (powers of two of the
// unit), each chunk split into 2^sub linear buckets. With the default
// configuration (unit = 1µs, sub = 5) relative quantile error is bounded by
// 1/2^5 ≈ 3.1% across a range of 1µs to ~1h, using a few KB of memory.
//
// The zero value is not usable; construct with NewHistogram or
// NewDefaultHistogram.
type Histogram struct {
	unit    time.Duration // smallest distinguishable value
	subBits uint          // linear buckets per chunk = 1<<subBits
	counts  []uint64
	total   uint64
	min     time.Duration
	max     time.Duration
	sum     time.Duration
}

// NewDefaultHistogram returns a histogram suited to request latencies:
// microsecond resolution, 3.1% relative error.
func NewDefaultHistogram() *Histogram {
	return NewHistogram(time.Microsecond, 5)
}

// NewHistogram constructs a histogram with the given unit (values below the
// unit land in the first bucket) and subBits linear subdivisions per
// power-of-two chunk. subBits must be in [1, 10].
func NewHistogram(unit time.Duration, subBits uint) *Histogram {
	if unit <= 0 {
		panic("stats: histogram unit must be positive")
	}
	if subBits < 1 || subBits > 10 {
		panic("stats: histogram subBits must be in [1,10]")
	}
	// 64-bit values / unit yields at most 64 chunks.
	nBuckets := (64 - int(subBits) + 1) * (1 << subBits)
	return &Histogram{
		unit:    unit,
		subBits: subBits,
		counts:  make([]uint64, nBuckets),
		min:     math.MaxInt64,
	}
}

// bucketIndex maps a non-negative scaled value to its bucket.
func (h *Histogram) bucketIndex(scaled uint64) int {
	sub := uint64(1) << h.subBits
	if scaled < sub {
		return int(scaled) // first chunk is fully linear
	}
	// Position of the highest set bit determines the chunk.
	msb := 63 - bits.LeadingZeros64(scaled)
	chunk := msb - int(h.subBits) // >= 0 because scaled >= sub
	// Offset of the linear bucket within the chunk.
	offset := (scaled >> uint(chunk)) - sub
	return (chunk+1)*int(sub) + int(offset)
}

// bucketLow returns the smallest scaled value mapping to bucket i.
func (h *Histogram) bucketLow(i int) uint64 {
	sub := 1 << h.subBits
	if i < sub {
		return uint64(i)
	}
	chunk := i/sub - 1
	offset := i % sub
	return (uint64(sub) + uint64(offset)) << uint(chunk)
}

// Record adds a single observation. Negative values are clamped to zero.
func (h *Histogram) Record(v time.Duration) {
	h.RecordN(v, 1)
}

// RecordN adds n observations of value v.
func (h *Histogram) RecordN(v time.Duration, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	scaled := uint64(v / h.unit)
	idx := h.bucketIndex(scaled)
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx] += n
	h.total += n
	h.sum += v * time.Duration(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Quantile returns an upper-bound estimate for the q-quantile (q in [0,1]).
// Returns 0 when the histogram is empty or q is NaN.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if math.IsNaN(q) {
		// NaN slips through both range clamps, and converting it to a rank
		// is implementation-defined; answer as for an empty histogram.
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation (1-based), at least 1.
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			// Upper edge of the bucket bounds the value from above; clamp
			// to the recorded max so Quantile(1) == Max for sparse data.
			hi := h.bucketLow(i+1) * uint64(h.unit)
			v := time.Duration(hi)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Merge adds all observations recorded in o into h. Both histograms must
// share the same unit and subBits configuration.
func (h *Histogram) Merge(o *Histogram) error {
	if h.unit != o.unit || h.subBits != o.subBits {
		return fmt.Errorf("stats: cannot merge histograms with different configurations (unit %v/%v, subBits %d/%d)",
			h.unit, o.unit, h.subBits, o.subBits)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	return nil
}

// Snapshot returns a copy of h, decoupled from future recordings.
func (h *Histogram) Snapshot() *Histogram {
	c := *h
	c.counts = make([]uint64, len(h.counts))
	copy(c.counts, h.counts)
	return &c
}

// String summarizes the distribution for logs and reports.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%v p50=%v p95=%v p99=%v max=%v}",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// ExactQuantile computes the q-quantile of a raw sample slice (nearest-rank).
// It is used by tests to validate Histogram against ground truth and by
// small-sample reports where exactness matters more than memory.
func ExactQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 || math.IsNaN(q) {
		return 0
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
