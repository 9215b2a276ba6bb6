package livenet

import (
	"container/heap"
	"context"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// simNet is a deterministic nodeIO for a whole in-process deployment: a
// virtual clock, an in-memory FIFO of frames (each delivered by calling
// the target node's routeInbound on the driving goroutine) and timers
// fired in virtual-time order. Every frame sent and every timer fired
// is appended to trace, so two runs from one seed can be compared line
// for line.
type simNet struct {
	mu     sync.Mutex
	start  time.Time
	clock  time.Time
	nodes  map[model.NodeID]*Node
	frames []simFrame
	timers simTimers
	seq    uint64 // timer registrations, the tie-break at equal times
	trace  []string
	kinds  map[string]int     // frames sent, by message type
	drop   func(env any) bool // frames lost in flight (in the trace, not delivered)
	sent   chan struct{}      // a token per send, for a driver waiting on a caller
	err    error
}

type simFrame struct {
	to  model.NodeID
	buf []byte
}

type simTimer struct {
	at     time.Time
	seq    uint64
	node   model.NodeID
	id     uint64 // the node's registration number
	period time.Duration
	fire   func(now time.Time)
	done   bool // stopped, or a one-shot that fired
}

type simTimers []*simTimer

func (h simTimers) Len() int { return len(h) }
func (h simTimers) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h simTimers) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simTimers) Push(x any)   { *h = append(*h, x.(*simTimer)) }
func (h *simTimers) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

func newSimNet() *simNet {
	start := time.Unix(1_700_000_000, 0).UTC()
	return &simNet{start: start, clock: start, nodes: make(map[model.NodeID]*Node),
		kinds: make(map[string]int), sent: make(chan struct{}, 1)}
}

// simIO is one node's view of the simNet.
type simIO struct {
	s       *simNet
	id      model.NodeID
	timerID *atomic.Uint64
}

func (v simIO) now() time.Time {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.clock
}

func (v simIO) every(period time.Duration, f func(now time.Time)) func() {
	t := v.s.schedule(v.id, v.timerID.Add(1), period, period, f)
	return func() { v.s.stop(t) }
}

func (v simIO) after(d time.Duration) (<-chan time.Time, func() bool) {
	c := make(chan time.Time, 1)
	t := v.s.schedule(v.id, v.timerID.Add(1), d, 0, func(now time.Time) { c <- now })
	return c, func() bool { return v.s.stop(t) }
}

// withTimeout's context expires at a virtual deadline.
func (v simIO) withTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	vc := &virtualDeadline{Context: ctx, at: v.now().Add(d)}
	t := v.s.schedule(v.id, v.timerID.Add(1), d, 0, func(time.Time) {
		vc.expired.Store(true)
		cancel()
	})
	return vc, func() {
		v.s.stop(t)
		cancel()
	}
}

type virtualDeadline struct {
	context.Context
	at      time.Time
	expired atomic.Bool
}

func (c *virtualDeadline) Deadline() (time.Time, bool) { return c.at, true }

func (c *virtualDeadline) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}

var laneNames = [...]string{lanePost: "post", laneQueue: "queue", laneBulk: "bulk"}

func (v simIO) send(f outFrame, l lane) {
	if f.addr == "" {
		return
	}
	buf, err := wire.AppendEnvelope(nil, envelope{From: v.id, Msg: f.msg})
	s := v.s
	s.mu.Lock()
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("node %d: encode %T: %w", v.id, f.msg, err)
	}
	kind := fmt.Sprintf("%T", f.msg)
	s.kinds[kind]++
	s.trace = append(s.trace, fmt.Sprintf("%v %d->%d %s %s %x", s.clock.Sub(s.start), v.id, f.to, laneNames[l], kind, buf))
	s.frames = append(s.frames, simFrame{to: f.to, buf: buf})
	s.mu.Unlock()
	select {
	case s.sent <- struct{}{}:
	default:
	}
}

// schedule registers a timer first due d from now, repeating every
// period when period > 0.
func (s *simNet) schedule(node model.NodeID, id uint64, d, period time.Duration, f func(time.Time)) *simTimer {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	t := &simTimer{at: s.clock.Add(d), seq: s.seq, node: node, id: id, period: period, fire: f}
	heap.Push(&s.timers, t)
	return t
}

// stop cancels t, reporting whether it had not yet fired or stopped.
func (s *simNet) stop(t *simTimer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := t.done
	t.done = true
	return !was
}

// step runs the next event — the oldest frame in flight, else the
// earliest timer due by until — on this goroutine, and then waits for
// the tick goroutines it started. It reports false when there is none.
func (s *simNet) step(until time.Time) bool {
	s.mu.Lock()
	if len(s.frames) > 0 {
		f := s.frames[0]
		s.frames = s.frames[1:]
		s.mu.Unlock()
		env, err := wire.DecodeEnvelope(f.buf)
		if err != nil {
			s.mu.Lock()
			s.err = fmt.Errorf("decode a frame to %d: %w", f.to, err)
			s.mu.Unlock()
			return true
		}
		if s.drop != nil && s.drop(env.Msg) {
			s.mu.Lock()
			s.trace = append(s.trace, fmt.Sprintf("%v drop %T to %d", s.clock.Sub(s.start), env.Msg, f.to))
			s.mu.Unlock()
			return true
		}
		n := s.nodes[f.to]
		n.routeInbound(env)
		n.wg.Wait()
		return true
	}
	for len(s.timers) > 0 && s.timers[0].done {
		heap.Pop(&s.timers)
	}
	if len(s.timers) == 0 || s.timers[0].at.After(until) {
		s.clock = until
		s.mu.Unlock()
		return false
	}
	t := s.timers[0]
	s.clock = t.at
	if t.period > 0 {
		s.seq++
		t.at, t.seq = t.at.Add(t.period), s.seq
		heap.Fix(&s.timers, 0)
	} else {
		t.done = true
		heap.Pop(&s.timers)
	}
	s.trace = append(s.trace, fmt.Sprintf("%v timer %d#%d", s.clock.Sub(s.start), t.node, t.id))
	now := s.clock
	s.mu.Unlock()
	t.fire(now)
	s.nodes[t.node].wg.Wait()
	return true
}

// runUntil steps until virtual time reaches until, or until done
// reports true after a step.
func (s *simNet) runUntil(until time.Time, done func() bool) {
	for s.step(until) {
		if done != nil && done() {
			return
		}
	}
}

// simListener is a listener no peer ever dials: the simNet carries
// every frame, so a node's accept loop exits at once.
type simListener string

func (l simListener) Accept() (net.Conn, error) { return nil, net.ErrClosed }
func (l simListener) Close() error              { return nil }
func (l simListener) Addr() net.Addr            { return simAddr(l) }

type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

// launchSim launches sh's deployment over a fresh simNet, membership on
// and the requester cache off, and runs it to one virtual second. The
// caller closes the cluster.
func launchSim(t *testing.T, sh Shape, adapt *AdaptConfig) (*simNet, *Cluster) {
	t.Helper()
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newSimNet()
	opts := Options{
		Seed:       sh.Seed,
		CacheBytes: -1,
		Membership: true,
		Adaptation: adapt,
		Hooks: NetHooks{Listen: func(id model.NodeID, _ string) (net.Listener, error) {
			return simListener(fmt.Sprintf("sim:%d", id)), nil
		}},
	}
	c, err := launch(inst, assign, place, opts, func(n *Node) nodeIO {
		s.nodes[n.id] = n
		return simIO{s: s, id: n.id, timerID: new(atomic.Uint64)}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The accept loops exit on the listeners' first Accept.
	for _, n := range c.Nodes {
		n.wg.Wait()
	}
	s.runUntil(s.start.Add(time.Second), nil)
	return s, c
}

// replay runs a 3-node deployment from seed over a simNet, with
// membership and adaptation on, through a query whose first result is
// lost (so the sweep resends it), a publish and one adaptation epoch.
// It returns the trace and the frames sent by message type.
func replay(t *testing.T, seed int64) ([]string, map[string]int) {
	t.Helper()
	const epoch = 2 * time.Second
	s, c := launchSim(t, Shape{Documents: 30, Categories: 4, Nodes: 3, Clusters: 2, Seed: seed},
		&AdaptConfig{Interval: epoch})
	defer c.Close()
	inst := c.inst

	// Queries from node 0 into the largest category, issued one after
	// another, all pending at once; their first results are lost in
	// flight, so one sweep resends them all.
	const queries = 4
	origin, cat := c.Nodes[0], bigCategory(inst)
	lost := 0
	s.drop = func(msg any) bool {
		if _, ok := msg.(protocol.ResultMsg); ok && lost < queries {
			lost++
			return true
		}
		return false
	}
	type result struct {
		out QueryOutcome
		err error
	}
	done := make(chan result, queries)
	for range queries {
		select {
		case <-s.sent:
		default:
		}
		go func() {
			out, err := origin.Query(cat, 1, 30*time.Second)
			done <- result{out, err}
		}()
		select {
		case <-s.sent: // the entry frame is in flight
		case r := <-done:
			t.Fatalf("seed %d: query sent nothing: %+v, %v", seed, r.out, r.err)
		}
	}
	s.runUntil(s.clock.Add(30*time.Second), func() bool { return origin.InFlight() == 0 })
	for range queries {
		if r := <-done; r.err != nil || !r.out.Done {
			t.Fatalf("seed %d: query: %+v, %v", seed, r.out, r.err)
		}
	}
	s.drop = nil

	// A publish into the serving cluster of the first document node 1
	// holds.
	doc := catalog.DocID(len(inst.Catalog.Docs))
	c.Nodes[1].routeMu.RLock()
	for _, ds := range c.Nodes[1].byCat {
		if len(ds) > 0 {
			doc = min(doc, slices.Min(ds))
		}
	}
	c.Nodes[1].routeMu.RUnlock()
	if err := c.Nodes[1].Publish(doc); err != nil {
		t.Fatalf("seed %d: publish %d: %v", seed, doc, err)
	}

	// One whole adaptation epoch: report, aggregate, evaluate.
	next := s.clock.Truncate(epoch).Add(epoch)
	s.runUntil(next.Add(epoch+epoch/8), nil)
	if s.err != nil {
		t.Fatal(s.err)
	}
	if got := origin.Stats()["query_resends"]; got < queries {
		t.Fatalf("seed %d: query_resends = %d, want a resend per lost result", seed, got)
	}
	return s.trace, s.kinds
}

// TestSeededReplay: a seeded 3-node deployment driven over the simNet
// replays byte for byte — every frame's wire bytes, sender, receiver,
// lane and virtual time, and every timer fired — and a second seed
// gives a different run.
func TestSeededReplay(t *testing.T) {
	const seed = 7
	a, kinds := replay(t, seed)
	for _, k := range []string{"protocol.QueryMsg", "protocol.ResultMsg", "protocol.PublishMsg",
		"protocol.PublishAckMsg", "membership.Ping", "membership.Ack", "wire.LeaderLoad"} {
		if kinds[k] == 0 {
			t.Errorf("the trace holds no %s (frames by type: %v)", k, kinds)
		}
	}
	t.Logf("%d events, frames by type %v", len(a), kinds)
	b, _ := replay(t, seed)
	if i := firstDiff(a, b); i >= 0 {
		t.Fatalf("seed %d replayed differently at event %d of %d/%d:\n  %s\n  %s", seed, i, len(a), len(b), at(a, i), at(b, i))
	}
	if other, _ := replay(t, seed+1); firstDiff(a, other) < 0 {
		t.Fatalf("seeds %d and %d gave identical traces", seed, seed+1)
	}
}

// firstDiff is the index of the first event where a and b differ, or
// -1 when they are identical.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(tr []string, i int) string {
	if i < len(tr) {
		return tr[i]
	}
	return "(end of trace)"
}

// replayShape is the 16-node deployment the churn replays run.
func replayShape(seed int64) Shape {
	return Shape{Documents: 64, Categories: 8, Nodes: 16, Clusters: 4, Seed: seed}
}

// simHello delivers a hello from node id, announcing addr, to node to,
// as a (re)started peer's announce does, and runs the simNet one
// virtual second on.
func simHello(t *testing.T, s *simNet, id, to model.NodeID, addr string) {
	t.Helper()
	hello, err := wire.AppendEnvelope(nil, envelope{From: id, Msg: helloMsg{ID: id, Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.trace = append(s.trace, fmt.Sprintf("%v hello %d->%d", s.clock.Sub(s.start), id, to))
	s.frames = append(s.frames, simFrame{to: to, buf: hello})
	s.mu.Unlock()
	s.runUntil(s.clock.Add(time.Second), nil)
}

// simLeave runs n's graceful Leave over the simNet. Leave sends its
// departures, then waits leaveFlushGrace on a virtual timer: the simNet
// is stepped only once that timer is set, and only until it fires, so
// n's shutdown races no event.
func simLeave(t *testing.T, s *simNet, n *Node) {
	t.Helper()
	s.mu.Lock()
	seq0 := s.seq
	s.mu.Unlock()
	left := make(chan struct{})
	go func() {
		n.Leave()
		close(left)
	}()
	var grace *simTimer
	waitFor(t, 5*time.Second, "Leave's flush grace set", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, tm := range s.timers {
			if tm.node == n.id && tm.seq > seq0 && tm.period == 0 {
				grace = tm
			}
		}
		return grace != nil
	})
	s.runUntil(s.clock.Add(time.Second), func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return grace.done
	})
	<-left
}

// replayChurn runs a 16-node deployment from seed over a simNet, with
// membership on, through one hello — node 9 announcing a new address,
// as a restarted peer does, which node 0 forwards to every peer it knew
// — and then node 1's graceful leave, which announces the departure to
// every peer. It returns the trace and the frames sent by message type.
func replayChurn(t *testing.T, seed int64) ([]string, map[string]int) {
	t.Helper()
	s, c := launchSim(t, replayShape(seed), nil)
	defer c.Close()
	simHello(t, s, 9, 0, "sim:9-restarted")
	simLeave(t, s, c.Nodes[1])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		t.Fatal(s.err)
	}
	return slices.Clone(s.trace), maps.Clone(s.kinds)
}

// TestSeededReplayHelloAndLeave: a hello forwarded to every prior peer
// and a leave announced to every peer go out in id order, not address
// book map order, so one seed replays the same frame sequence on two
// fresh deployments. The hello costs one forward per prior peer and one
// book reply: a forwarded hello is neither forwarded again nor
// answered.
func TestSeededReplayHelloAndLeave(t *testing.T) {
	const seed = 11
	a, kinds := replayChurn(t, seed)
	for k, want := range map[string]int{"wire.Hello": 14, "wire.Book": 1} {
		if kinds[k] != want {
			t.Errorf("the trace holds %d %s frames, want %d (frames by type: %v)", kinds[k], k, want, kinds)
		}
	}
	if got := kinds["membership.Leave"]; got < 15 {
		t.Errorf("the trace holds %d membership.Leave frames, want ≥ 15 (frames by type: %v)", got, kinds)
	}
	t.Logf("%d events, frames by type %v", len(a), kinds)
	b, _ := replayChurn(t, seed)
	if i := firstDiff(a, b); i >= 0 {
		t.Fatalf("seed %d replayed differently at event %d of %d/%d:\n  %s\n  %s", seed, i, len(a), len(b), at(a, i), at(b, i))
	}
}

// TestReturningPeerRoutesAgain: node 1 leaves, and every peer takes it
// out of routing; then a hello arrives from node 1 at a new address, as
// a restarted peer's does. Every node whose launch NRT named node 1
// still names it, and a query's entry send into that cluster can go to
// node 1 at its new address: the failure detector took node 1 out of
// routing through the address book alone, and the hello put it back.
func TestReturningPeerRoutesAgain(t *testing.T) {
	const returning, addr = model.NodeID(1), "sim:1-restarted"
	s, c := launchSim(t, replayShape(11), nil)
	defer c.Close()
	named := make(map[*Node][]model.ClusterID)
	for _, n := range c.Nodes {
		if n.id == returning {
			continue
		}
		locked(n, func(n *Node) {
			for cl, members := range n.nrt {
				if slices.Contains(members, returning) {
					named[n] = append(named[n], model.ClusterID(cl))
				}
			}
		})
	}
	if len(named) == 0 {
		t.Fatal("no launch NRT names node 1")
	}

	simLeave(t, s, c.Nodes[returning])
	for n := range named {
		locked(n, func(n *Node) {
			if n.book.has(returning) {
				t.Fatalf("node %d still holds node 1 in its book after the leave", n.id)
			}
		})
	}

	simHello(t, s, returning, 0, addr)
	entries := 0
	for n, cls := range named {
		for _, cl := range cls {
			var cat catalog.CategoryID = -1
			locked(n, func(n *Node) {
				if !slices.Contains(n.nrt[cl], returning) {
					t.Errorf("node %d's NRT entry for cluster %d lost node 1", n.id, cl)
				}
				n.dcrt.Range(func(c catalog.CategoryID, e protocol.DCRTEntry) bool {
					if e.Cluster == cl && (cat < 0 || c < cat) {
						cat = c
					}
					return true
				})
			})
			if cat < 0 {
				continue // the cluster serves no category: no entry send goes there
			}
			// The entry member is drawn at random among the cluster's
			// routable members; enough draws reach each of them.
			sent := false
			withTable(n, func(n *Node) {
				for range 200 {
					f, ok := n.routeQuery(&pendingQuery{id: 1, cat: cat, want: 1})
					if ok && f.to == returning {
						sent = f.addr == addr && f.msg.(protocol.QueryMsg).Entry
						return
					}
				}
			})
			if !sent {
				t.Errorf("node %d cannot send a category %d entry frame to node 1 at %s", n.id, cat, addr)
			}
			entries++
		}
	}
	if entries == 0 {
		t.Fatal("no node routes a served category through node 1")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		t.Fatal(s.err)
	}
}
