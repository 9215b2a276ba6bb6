package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should read zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %g", h.Mean())
	}
	if h.Max() != 5 {
		t.Errorf("Max = %g", h.Max())
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %g", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("p0 = %g", q)
	}
	if q := h.Quantile(1); q != 5 {
		t.Errorf("p100 = %g", q)
	}
}

func TestHistogramQuantileNearestRank(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if q := h.Quantile(0.95); q != 95 {
		t.Errorf("p95 = %g, want 95", q)
	}
	if q := h.Quantile(0.01); q != 1 {
		t.Errorf("p1 = %g, want 1", q)
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(5)
	_ = h.Quantile(0.5)
	h.Observe(1) // must re-sort lazily
	if q := h.Quantile(0); q != 1 {
		t.Errorf("quantile after new observation = %g, want 1", q)
	}
}

func TestHistogramDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Millisecond)
	if got := h.Mean(); got != 1500 {
		t.Errorf("duration in ms = %g", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	h.Observe(2)
	if s := h.Summary(); !strings.Contains(s, "n=1") {
		t.Errorf("summary %q missing count", s)
	}
}

func TestHistogramPercentileSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.PercentileSummary()
	for _, want := range []string{"n=100", "p50=50.00", "p95=95.00", "p99=99.00", "max=100.00"} {
		if !strings.Contains(s, want) {
			t.Errorf("percentile summary %q missing %q", s, want)
		}
	}
}

func TestHistogramDistribution(t *testing.T) {
	var h Histogram
	if h.Distribution(10, 40) != "" {
		t.Error("empty histogram should render an empty distribution")
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 10))
	}
	chart := h.Distribution(10, 20)
	if lines := strings.Count(chart, "\n"); lines != 10 {
		t.Errorf("distribution has %d rows, want 10:\n%s", lines, chart)
	}
	if !strings.Contains(chart, "█") {
		t.Errorf("distribution has no bars:\n%s", chart)
	}
	// Uniform samples: every bucket bar is the full width.
	if got := strings.Count(chart, "█"); got != 10*20 {
		t.Errorf("uniform distribution drew %d cells, want %d", got, 10*20)
	}

	var flat Histogram
	flat.Observe(7)
	flat.Observe(7)
	one := flat.Distribution(5, 10)
	if lines := strings.Count(one, "\n"); lines != 1 {
		t.Errorf("zero-span distribution has %d rows, want 1:\n%s", lines, one)
	}
	if !strings.Contains(one, "2") {
		t.Errorf("zero-span distribution missing count:\n%s", one)
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Observe(rng.Float64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSyncHistogramConcurrent(t *testing.T) {
	var h SyncHistogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(g))
				h.ObserveDuration(time.Duration(g) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != 7 {
		t.Errorf("max = %f", h.Max())
	}
	if h.Quantile(0) != 0 || h.Quantile(1) != 7 {
		t.Errorf("quantiles = %f..%f", h.Quantile(0), h.Quantile(1))
	}
	if h.Summary() == "" {
		t.Error("empty summary")
	}
	if m := h.Mean(); m <= 0 || m >= 7 {
		t.Errorf("mean = %f", m)
	}
}

func TestHistogramSum(t *testing.T) {
	var h Histogram
	if h.Sum() != 0 {
		t.Errorf("empty Sum = %g, want 0", h.Sum())
	}
	for _, v := range []float64{1.5, 2, 3.5} {
		h.Observe(v)
	}
	if got := h.Sum(); got != 7 {
		t.Errorf("Sum = %g, want 7", got)
	}
	var sh SyncHistogram
	sh.Observe(4)
	sh.Observe(6)
	if got := sh.Sum(); got != 10 {
		t.Errorf("SyncHistogram Sum = %g, want 10", got)
	}
}

// TestIntHistogramMatchesSyncHistogram feeds one stream of batch-sized
// integers to both representations — empty, one sample, skewed streams
// of several lengths, and concurrent observers — and requires every
// answer to be equal, so readers of a transport's batch sizes see the
// same numbers from constant memory.
func TestIntHistogramMatchesSyncHistogram(t *testing.T) {
	const top = 64
	qs := []float64{-1, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 2}
	check := func(name string, ih *IntHistogram, sh *SyncHistogram) {
		t.Helper()
		if ih.Count() != sh.Count() || ih.Sum() != sh.Sum() || ih.Mean() != sh.Mean() || ih.Max() != sh.Max() {
			t.Fatalf("%s: count/sum/mean/max %d/%g/%g/%g, want %d/%g/%g/%g", name,
				ih.Count(), ih.Sum(), ih.Mean(), ih.Max(), sh.Count(), sh.Sum(), sh.Mean(), sh.Max())
		}
		for _, q := range qs {
			if got, want := ih.Quantile(q), sh.Quantile(q); got != want {
				t.Fatalf("%s: Quantile(%g) = %g, want %g", name, q, got, want)
			}
		}
		if got, want := ih.Summary(), sh.Summary(); got != want {
			t.Fatalf("%s: Summary = %q, want %q", name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 100000} {
		ih, sh := NewIntHistogram(top), &SyncHistogram{}
		for i := 0; i < n; i++ {
			// Mostly ones, like a lightly loaded writer, with a long tail.
			v := 1
			if rng.Intn(4) == 0 {
				v = 1 + rng.Intn(top)
			}
			ih.Observe(v)
			sh.Observe(float64(v))
		}
		check(fmt.Sprintf("n=%d", n), ih, sh)
	}

	ih, sh := NewIntHistogram(top), &SyncHistogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := 1 + (g*i)%top
				ih.Observe(v)
				sh.Observe(float64(v))
			}
		}(g)
	}
	wg.Wait()
	check("concurrent", ih, sh)

	// Out-of-range samples land on the nearer end.
	clamped := NewIntHistogram(top)
	clamped.Observe(-3)
	clamped.Observe(top + 10)
	if clamped.Count() != 2 || clamped.Quantile(0) != 0 || clamped.Max() != top {
		t.Fatalf("clamped histogram: %s", clamped.Summary())
	}
}

// TestIntHistogramConstantMemory: observing allocates nothing, so the
// histogram's footprint does not grow with the number of samples, and
// neither does reading it (a benchmark reads Count and Sum between its
// memory statistics and the phase they bracket).
func TestIntHistogramConstantMemory(t *testing.T) {
	h := NewIntHistogram(64)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(7)
		if h.Count() == 0 || h.Sum() == 0 || h.Mean() == 0 || h.Quantile(0.5) == 0 {
			t.Fatal("empty after an observation")
		}
	}); avg != 0 {
		t.Fatalf("Observe and the reads allocate %.1f per run, want 0", avg)
	}
}
