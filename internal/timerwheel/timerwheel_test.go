package timerwheel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEveryFiresRepeatedly checks a registered callback keeps firing at
// roughly its period until stopped.
func TestEveryFiresRepeatedly(t *testing.T) {
	w := New()
	var n atomic.Int64
	stop := w.Every(10*time.Millisecond, func(time.Time) { n.Add(1) })
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.Load(); got < 5 {
		t.Fatalf("callback fired %d times in 2s, want >= 5", got)
	}
}

// TestStopHalts checks a stopped timer never fires again and that stop
// is idempotent.
func TestStopHalts(t *testing.T) {
	w := New()
	var n atomic.Int64
	stop := w.Every(5*time.Millisecond, func(time.Time) { n.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop()
	at := n.Load()
	time.Sleep(50 * time.Millisecond)
	if got := n.Load(); got != at {
		t.Fatalf("timer fired %d more times after stop", got-at)
	}
}

// TestOneGoroutineManyTimers pins the whole point of the package: a
// thousand timers share one goroutine, and the goroutine exits when the
// last timer stops.
func TestOneGoroutineManyTimers(t *testing.T) {
	w := New()
	before := runtime.NumGoroutine()
	var stops []func()
	var fired atomic.Int64
	for i := 0; i < 1000; i++ {
		stops = append(stops, w.Every(20*time.Millisecond, func(time.Time) { fired.Add(1) }))
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("1000 timers grew goroutines %d -> %d, want one wheel goroutine", before, after)
	}
	deadline := time.Now().Add(2 * time.Second)
	for fired.Load() < 1000 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fired.Load() < 1000 {
		t.Fatalf("only %d fires across 1000 timers", fired.Load())
	}
	for _, s := range stops {
		s()
	}
	if w.Timers() != 0 {
		t.Fatalf("%d timers left after stopping all", w.Timers())
	}
	// The wheel goroutine drains once the heap is empty.
	deadline = time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		running := w.running
		w.mu.Unlock()
		if !running {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("wheel goroutine still running with no timers")
}

// TestConcurrentRegisterStop hammers registration and stop from many
// goroutines (race-detector coverage for the heap bookkeeping).
func TestConcurrentRegisterStop(t *testing.T) {
	w := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				stop := w.Every(time.Millisecond, func(time.Time) {})
				if j%2 == 0 {
					stop()
				} else {
					defer stop()
				}
			}
		}()
	}
	wg.Wait()
}

// TestStopFromCallback checks a callback may stop its own timer.
func TestStopFromCallback(t *testing.T) {
	w := New()
	var n atomic.Int64
	var stop func()
	var mu sync.Mutex
	mu.Lock()
	stop = w.Every(5*time.Millisecond, func(time.Time) {
		mu.Lock()
		defer mu.Unlock()
		if n.Add(1) == 1 {
			stop()
		}
	})
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
	if got := n.Load(); got != 1 {
		t.Fatalf("self-stopped timer fired %d times, want exactly 1", got)
	}
}

// TestCoarseClock pins the coarse clock's contract: with a timer
// registered it trails the real clock by little more than CoarseTick and
// never runs backwards; with none (the goroutine gone) it reads the
// clock itself.
func TestCoarseClock(t *testing.T) {
	w := New()
	// lag reads Coarse first, so a direct clock read lags by >= 0.
	lag := func() time.Duration { c := w.Coarse(); return time.Since(epoch) - c }
	if l := lag(); l < 0 || l > time.Millisecond {
		t.Fatalf("idle wheel: Coarse lags the clock by %v, want a direct read", l)
	}
	stop := w.Every(time.Hour, func(time.Time) {})
	var last, worst time.Duration
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		c := w.Coarse()
		if c < last {
			t.Fatalf("Coarse ran backwards: %v after %v", c, last)
		}
		last = c
		if l := time.Since(epoch) - c; l > worst {
			worst = l
		}
		time.Sleep(time.Millisecond)
	}
	// Slack for a loaded box: the bound is CoarseTick plus scheduling.
	if worst > CoarseTick+40*time.Millisecond {
		t.Fatalf("Coarse lagged the clock by %v with the wheel running, tick is %v", worst, CoarseTick)
	}
	stop()
	deadline := time.Now().Add(time.Second)
	for w.coarse.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l := lag(); l < 0 || l > time.Millisecond {
		t.Fatalf("stopped wheel: Coarse lags the clock by %v, want a direct read", l)
	}
}
