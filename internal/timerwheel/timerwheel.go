// Package timerwheel is a shared timer service for periodic work: many
// coarse periodic callbacks multiplexed onto ONE goroutine, instead of
// one time.Ticker goroutine per timer.
//
// livenet's per-node housekeeping — membership probe ticks, adaptation
// epoch ticks, query-table sweeps — used to cost three-plus dedicated
// ticker goroutines per node. At paper scale (a 10k-node in-process
// cluster) that is tens of thousands of goroutines and runtime timers
// doing nothing but sleeping. All of them now register here: the wheel
// keeps a min-heap of (next-fire, period, callback) entries, sleeps
// until the earliest, fires what is due, and reschedules. The goroutine
// itself is lazy — it starts with the first registration and exits when
// the last timer stops, so an idle process pays nothing.
//
// The wheel also keeps the process's coarse clock (Coarse): while the
// goroutine runs it wakes at least every CoarseTick and publishes a
// monotonic reading, so per-message code that only needs to know
// "roughly how long ago" pays one atomic load instead of a clock read.
//
// Callbacks run on the wheel goroutine and MUST NOT block: livenet's
// registrations do a short sweep under a TryLock, or start a goroutine
// that takes the lock the real work needs (dropping the tick while the
// previous one still runs). A slow callback
// delays every other timer and the coarse clock — that is the deal one
// shared goroutine implies, and the callers here accept it because
// dropped or delayed periodic ticks are harmless by design.
package timerwheel

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// CoarseTick bounds how stale a Coarse reading is while the wheel
// goroutine is scheduled on time: the loop never sleeps longer.
const CoarseTick = 10 * time.Millisecond

// epoch anchors Coarse readings on the monotonic clock.
var epoch = time.Now()

// sinceEpoch places t on the coarse clock's scale; never zero, which
// Wheel.coarse keeps for "the loop is not running".
func sinceEpoch(t time.Time) int64 { return int64(t.Sub(epoch)) + 1 }

// Wheel multiplexes periodic callbacks onto one goroutine.
type Wheel struct {
	mu      sync.Mutex
	entries timerHeap
	seq     uint64
	running bool
	// wake nudges the loop after the heap changed under it (earlier
	// deadline registered, or an entry stopped).
	wake chan struct{}
	// coarse is the loop's last clock reading (sinceEpoch); zero while
	// the loop is not running. Written under mu, read without it.
	coarse atomic.Int64
}

// entry is one registered periodic timer.
type entry struct {
	id     uint64
	next   time.Time
	period time.Duration
	fn     func(now time.Time)
	stop   bool // unregistered; dropped when popped
	index  int  // heap bookkeeping
}

// New builds an empty wheel.
func New() *Wheel {
	return &Wheel{wake: make(chan struct{}, 1)}
}

// shared is the process-wide wheel every node registers with.
var shared = New()

// Default returns the process-wide wheel.
func Default() *Wheel { return shared }

// Every registers fn to run every period (first fire one period from
// now) and returns a stop function. Stop is idempotent and safe to call
// from anywhere, including fn itself. fn runs on the wheel goroutine
// and must not block.
func (w *Wheel) Every(period time.Duration, fn func(now time.Time)) (stop func()) {
	if period <= 0 {
		period = time.Millisecond
	}
	w.mu.Lock()
	w.seq++
	now := time.Now()
	e := &entry{id: w.seq, next: now.Add(period), period: period, fn: fn}
	heap.Push(&w.entries, e)
	starting := !w.running
	if starting {
		w.running = true
		w.coarse.Store(sinceEpoch(now))
	}
	w.mu.Unlock()
	if starting {
		go w.loop()
	} else {
		w.nudge()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			w.mu.Lock()
			e.stop = true
			if e.index >= 0 {
				heap.Remove(&w.entries, e.index)
			}
			w.mu.Unlock()
			w.nudge()
		})
	}
}

// Timers reports how many periodic timers are registered (tests and
// introspection).
func (w *Wheel) Timers() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.entries.Len()
}

// Coarse returns monotonic time since process start, at most CoarseTick
// behind the real clock (plus whatever the wheel goroutine waited for a
// processor or a slow callback). While any timer is registered it costs
// one atomic load; otherwise it reads the clock. Subtract two readings
// to judge an elapsed time; do not compare them with time.Time values.
func (w *Wheel) Coarse() time.Duration {
	if ns := w.coarse.Load(); ns != 0 {
		return time.Duration(ns)
	}
	return time.Duration(sinceEpoch(time.Now()))
}

func (w *Wheel) nudge() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// loop is the wheel goroutine: sleep until the earliest deadline (at
// most CoarseTick), publish the coarse clock, fire everything due,
// reschedule, exit when the heap drains.
func (w *Wheel) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		w.mu.Lock()
		now := time.Now()
		w.coarse.Store(sinceEpoch(now))
		// Fire everything due. Callbacks run outside the lock so they
		// can (non-blockingly) interact with code that registers timers.
		var due []*entry
		for w.entries.Len() > 0 {
			e := w.entries[0]
			if e.next.After(now) {
				break
			}
			due = append(due, e)
			e.next = now.Add(e.period)
			heap.Fix(&w.entries, 0)
		}
		if w.entries.Len() == 0 && len(due) == 0 {
			w.running = false
			w.coarse.Store(0)
			w.mu.Unlock()
			return
		}
		wait := CoarseTick
		if w.entries.Len() > 0 {
			if d := time.Until(w.entries[0].next); d < wait {
				wait = d
			}
		}
		w.mu.Unlock()

		for _, e := range due {
			// stop() may have raced the pop; honor it without firing.
			w.mu.Lock()
			stopped := e.stop
			w.mu.Unlock()
			if !stopped {
				e.fn(now)
			}
		}
		if len(due) > 0 {
			continue // recompute the wait with post-callback state
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-w.wake:
		}
	}
}

// timerHeap orders entries by next fire time.
type timerHeap []*entry

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].next.Before(h[j].next) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *timerHeap) Push(x any)        { e := x.(*entry); e.index = len(*h); *h = append(*h, e) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
