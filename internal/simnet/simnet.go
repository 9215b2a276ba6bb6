// Package simnet is a deterministic discrete-event network simulator.
//
// The paper evaluates its protocols at the level of messages and hops, not
// wall-clock latencies, so the simulator's job is to deliver messages
// between simulated processes in a reproducible order with a plausible
// latency model, count traffic, and let tests inject failures (dead nodes,
// cut links). All randomness flows from a seed; two runs with the same
// seed produce identical event orders.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Message is anything deliverable between processes. Kind groups messages
// for traffic accounting; Size is the simulated payload in bytes.
type Message interface {
	Kind() string
	Size() int64
}

// Process is a simulated node: it receives messages addressed to it.
type Process interface {
	// Deliver handles a message sent by the process at address from.
	Deliver(net *Network, from int, msg Message)
}

// event is a scheduled callback; seq breaks ties so equal-time events run
// in schedule order (determinism).
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// Latency produces per-message delays.
type Latency interface {
	// Delay returns the one-way latency from a to b. It may consult rng.
	Delay(a, b int, rng *rand.Rand) time.Duration
}

// UniformLatency draws each delay uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

// Delay implements Latency.
func (u UniformLatency) Delay(_, _ int, rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// FixedLatency returns a constant delay.
type FixedLatency time.Duration

// Delay implements Latency.
func (f FixedLatency) Delay(_, _ int, _ *rand.Rand) time.Duration { return time.Duration(f) }

// DefaultLatency mimics wide-area RTTs: one-way 10–100 ms.
var DefaultLatency = UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond}

// Stats aggregates network traffic.
type Stats struct {
	// MessagesByKind counts delivered messages per Message.Kind.
	MessagesByKind map[string]int
	// BytesByKind sums Message.Size per kind.
	BytesByKind map[string]int64
	// Delivered is the total delivered message count.
	Delivered int
	// DroppedDead counts messages addressed to dead processes.
	DroppedDead int
	// DroppedLink counts messages lost to cut links.
	DroppedLink int
}

// Observer is notified of every delivered message, in delivery order.
// Observers must not mutate the network; they exist for tracing and
// reproducibility verification (see package trace).
type Observer interface {
	OnDeliver(at time.Duration, from, to int, msg Message)
}

// Network glues processes, the event queue, the latency model, and traffic
// accounting together.
type Network struct {
	rng    *rand.Rand
	lat    Latency
	now    time.Duration
	seq    uint64
	events eventHeap

	procs []Process
	alive []bool
	cut   map[[2]int]bool

	stats    Stats
	observer Observer

	// bytesPerSec, when positive, adds a size-dependent transmission
	// delay to every message on top of the latency model — the knob that
	// makes bulk transfers (document groups) take realistic time while
	// control messages stay cheap.
	bytesPerSec int64
}

// SetObserver installs (or clears, with nil) the delivery observer.
func (n *Network) SetObserver(o Observer) { n.observer = o }

// SetBandwidth sets the per-link transmission rate in bytes/second
// (0 disables size-dependent delay).
func (n *Network) SetBandwidth(bytesPerSec int64) {
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	n.bytesPerSec = bytesPerSec
}

// New creates a network with the given latency model and seed.
func New(lat Latency, seed int64) *Network {
	if lat == nil {
		lat = DefaultLatency
	}
	return &Network{
		rng: rand.New(rand.NewSource(seed)),
		lat: lat,
		cut: make(map[[2]int]bool),
		stats: Stats{
			MessagesByKind: make(map[string]int),
			BytesByKind:    make(map[string]int64),
		},
	}
}

// AddProcess registers a process and returns its address.
func (n *Network) AddProcess(p Process) int {
	n.procs = append(n.procs, p)
	n.alive = append(n.alive, true)
	return len(n.procs) - 1
}

// Rng exposes the simulation's random source so processes make
// reproducible random choices (e.g. the query protocol's random target
// node selection).
func (n *Network) Rng() *rand.Rand { return n.rng }

// Now returns the current simulated time.
func (n *Network) Now() time.Duration { return n.now }

// Alive reports whether the process at addr is alive.
func (n *Network) Alive(addr int) bool {
	return addr >= 0 && addr < len(n.alive) && n.alive[addr]
}

// Kill marks a process dead; messages to it are dropped. Killing an
// unknown address panics: the caller holds a stale handle.
func (n *Network) Kill(addr int) {
	n.mustKnow(addr)
	n.alive[addr] = false
}

// Revive brings a dead process back.
func (n *Network) Revive(addr int) {
	n.mustKnow(addr)
	n.alive[addr] = true
}

// CutLink drops all future messages between a and b (both directions).
func (n *Network) CutLink(a, b int) {
	n.mustKnow(a)
	n.mustKnow(b)
	n.cut[linkKey(a, b)] = true
}

// HealLink restores the link between a and b.
func (n *Network) HealLink(a, b int) {
	delete(n.cut, linkKey(a, b))
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (n *Network) mustKnow(addr int) {
	if addr < 0 || addr >= len(n.procs) {
		panic(fmt.Sprintf("simnet: unknown process address %d", addr))
	}
}

// Send schedules delivery of msg from -> to after the model latency.
// Sends from dead processes are silently allowed (the caller is driving
// them; tests use Kill for incoming traffic), but messages to dead
// processes or across cut links are counted as dropped.
func (n *Network) Send(from, to int, msg Message) {
	n.mustKnow(from)
	n.mustKnow(to)
	delay := n.lat.Delay(from, to, n.rng)
	if n.bytesPerSec > 0 && msg.Size() > 0 {
		delay += time.Duration(float64(msg.Size()) / float64(n.bytesPerSec) * float64(time.Second))
	}
	n.schedule(delay, func() {
		if !n.alive[to] {
			n.stats.DroppedDead++
			return
		}
		if n.cut[linkKey(from, to)] {
			n.stats.DroppedLink++
			return
		}
		n.stats.Delivered++
		n.stats.MessagesByKind[msg.Kind()]++
		n.stats.BytesByKind[msg.Kind()] += msg.Size()
		if n.observer != nil {
			n.observer.OnDeliver(n.now, from, to, msg)
		}
		n.procs[to].Deliver(n, from, msg)
	})
}

// After schedules fn to run after delay of simulated time (a local timer,
// not a network message).
func (n *Network) After(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	n.schedule(delay, fn)
}

func (n *Network) schedule(delay time.Duration, fn func()) {
	n.seq++
	heap.Push(&n.events, event{at: n.now + delay, seq: n.seq, fn: fn})
}

// Step runs the next event; it reports false when the queue is empty.
func (n *Network) Step() bool {
	if len(n.events) == 0 {
		return false
	}
	e := heap.Pop(&n.events).(event)
	n.now = e.at
	e.fn()
	return true
}

// Run drains the event queue (bounded by maxEvents to catch livelock;
// pass 0 for a generous default). It returns the number of events run and
// an error if the bound was hit with events still pending.
func (n *Network) Run(maxEvents int) (int, error) {
	if maxEvents <= 0 {
		maxEvents = 50_000_000
	}
	ran := 0
	for ran < maxEvents && n.Step() {
		ran++
	}
	if len(n.events) > 0 {
		return ran, fmt.Errorf("simnet: stopped after %d events with %d pending", ran, len(n.events))
	}
	return ran, nil
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to t. Later events stay queued.
func (n *Network) RunUntil(t time.Duration) int {
	ran := 0
	for {
		e, ok := n.events.Peek()
		if !ok || e.at > t {
			break
		}
		n.Step()
		ran++
	}
	if n.now < t {
		n.now = t
	}
	return ran
}

// Pending returns the number of queued events.
func (n *Network) Pending() int { return len(n.events) }

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	out := n.stats
	out.MessagesByKind = make(map[string]int, len(n.stats.MessagesByKind))
	for k, v := range n.stats.MessagesByKind {
		out.MessagesByKind[k] = v
	}
	out.BytesByKind = make(map[string]int64, len(n.stats.BytesByKind))
	for k, v := range n.stats.BytesByKind {
		out.BytesByKind[k] = v
	}
	return out
}

// ResetStats zeroes the traffic counters (the clock keeps running).
func (n *Network) ResetStats() {
	n.stats = Stats{
		MessagesByKind: make(map[string]int),
		BytesByKind:    make(map[string]int64),
	}
}
