// Package metrics provides the histograms the experiments and live
// nodes report: hop/latency histograms with quantiles, and their
// concurrent forms.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram collects float64 observations and answers summary queries.
// It keeps raw samples; experiment populations are small enough (≤ a few
// million) that exactness beats sketching.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Sum returns the total of all samples (0 when empty).
func (h *Histogram) Sum() float64 {
	var s float64
	for _, v := range h.samples {
		s += v
	}
	return s
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	var max float64
	for i, v := range h.samples {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank; it
// returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Summary renders count/mean/p50/p95/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
}

// PercentileSummary renders count/mean plus the tail percentiles a load
// test reports (p50/p95/p99/max) on one line.
func (h *Histogram) PercentileSummary() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// Distribution renders the samples as a fixed-width ASCII bucket chart:
// `buckets` equal-width ranges over [min, max], one row per bucket with a
// bar scaled to the most populated bucket. Empty histograms render "".
func (h *Histogram) Distribution(buckets, width int) string {
	if len(h.samples) == 0 {
		return ""
	}
	if buckets <= 0 {
		buckets = 10
	}
	if width <= 0 {
		width = 40
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	lo, hi := h.samples[0], h.samples[len(h.samples)-1]
	span := hi - lo
	if span == 0 {
		return fmt.Sprintf("%10.2f .. %10.2f | %s %d\n", lo, hi,
			strings.Repeat("█", width), len(h.samples))
	}
	counts := make([]int, buckets)
	for _, v := range h.samples {
		i := int(float64(buckets) * (v - lo) / span)
		if i >= buckets {
			i = buckets - 1
		}
		counts[i]++
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		from := lo + span*float64(i)/float64(buckets)
		to := lo + span*float64(i+1)/float64(buckets)
		bar := int(float64(width) * float64(c) / float64(peak))
		fmt.Fprintf(&b, "%10.2f .. %10.2f | %s %d\n", from, to, strings.Repeat("█", bar), c)
	}
	return b.String()
}

// SyncHistogram is a Histogram safe for concurrent observers (e.g. a
// load generator's response times recorded from many worker
// goroutines). It keeps every sample, so it suits a bounded run, not a
// long-lived process.
type SyncHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// Observe records one sample.
func (h *SyncHistogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// ObserveDuration records a duration in milliseconds.
func (h *SyncHistogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of samples.
func (h *SyncHistogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Count()
}

// Mean returns the sample mean (0 when empty).
func (h *SyncHistogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Mean()
}

// Quantile returns the q-quantile by nearest-rank (0 when empty).
func (h *SyncHistogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Quantile(q)
}

// Sum returns the total of all samples (0 when empty).
func (h *SyncHistogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Sum()
}

// Max returns the largest sample (0 when empty).
func (h *SyncHistogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Max()
}

// Summary renders count/mean/p50/p95/max on one line.
func (h *SyncHistogram) Summary() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Summary()
}

// PercentileSummary renders count/mean/p50/p95/p99/max on one line.
func (h *SyncHistogram) PercentileSummary() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.PercentileSummary()
}

// Distribution renders an ASCII bucket chart of the samples.
func (h *SyncHistogram) Distribution(buckets, width int) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Distribution(buckets, width)
}

// IntHistogram is an exact histogram of the integers 0…top, safe for
// concurrent observers: one atomic count per value, so observing costs
// one atomic add and no lock, and the histogram stays top+1 cells however
// many samples it sees (a SyncHistogram keeps every sample). Its answers
// equal those of a Histogram fed the same samples; read while observers
// count, each cell is read as it stands. Reading allocates nothing. A
// sample outside 0…top is counted as the nearer end.
type IntHistogram struct {
	counts []atomic.Int64
}

// NewIntHistogram returns an empty histogram of the values 0…top.
func NewIntHistogram(top int) *IntHistogram {
	return &IntHistogram{counts: make([]atomic.Int64, top+1)}
}

// Observe records one sample.
func (h *IntHistogram) Observe(v int) {
	h.counts[min(max(v, 0), len(h.counts)-1)].Add(1)
}

// Count returns the number of samples.
func (h *IntHistogram) Count() int {
	n := int64(0)
	for v := range h.counts {
		n += h.counts[v].Load()
	}
	return int(n)
}

// Sum returns the total of all samples (0 when empty).
func (h *IntHistogram) Sum() float64 {
	s := int64(0)
	for v := range h.counts {
		s += int64(v) * h.counts[v].Load()
	}
	return float64(s)
}

// Mean returns the sample mean (0 when empty). Histogram sums integer
// samples as floats, exactly while the sum stays below 2⁵³, so the two
// agree.
func (h *IntHistogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Max returns the largest sample (0 when empty).
func (h *IntHistogram) Max() float64 { return h.Quantile(1) }

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank; it
// returns 0 when empty.
func (h *IntHistogram) Quantile(q float64) float64 {
	n := int64(h.Count())
	if n == 0 {
		return 0
	}
	rank := int64(0) // 0-based position in sorted order
	if q >= 1 {
		rank = n - 1
	} else if q > 0 {
		rank = max(int64(math.Ceil(q*float64(n)))-1, 0)
	}
	for v := range h.counts {
		if rank -= h.counts[v].Load(); rank < 0 {
			return float64(v)
		}
	}
	return float64(len(h.counts) - 1)
}

// Summary renders count/mean/p50/p95/max on one line.
func (h *IntHistogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
}
