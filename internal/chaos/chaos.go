// Package chaos is a seeded, deterministic fault-injection layer for the
// live network: middleware that wraps the dial side of every directed
// peer link and applies per-link drop, delay, duplication, reordering,
// bandwidth caps, asymmetric partitions, and byte-level frame
// corruption. It is the repro tooling the livenet protocols are tested
// against — Jepsen-style scripted faults, but in-process and replayable.
//
// Determinism. Every fault decision is a pure function of
// (seed, link, write index): the Nth write on link A→B draws its
// randomness from a counter-based splitmix64 stream keyed by the seed
// and the link, independent of wall clock, goroutine scheduling, and of
// which faults were active for earlier writes. Re-running a scenario
// with the same seed therefore replays the identical fault pattern —
// the same writes dropped, the same bytes flipped at the same offsets
// (TestChaosDeterministicReplay pins this byte-for-byte). Residual
// nondeterminism comes only from the system under test (goroutine and
// socket timing), never from the fault layer.
//
// Granularity. The layer sits under net.Conn, so one Write call is the
// unit of loss: livenet's transport flushes one coalesced batch of
// frames per Write, which makes a dropped write behave like burst
// message loss (whole frames disappear, the stream stays parseable) and
// a corrupted write behave like a poisoned frame (the receiver's codec
// rejects it and closes the stream, forcing a reconnect). Both are
// exactly the failure modes the protocols must absorb.
package chaos

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"p2pshare/internal/model"
)

// Link is one directed sender→receiver pair. Faults are per-direction:
// cutting A→B while leaving B→A intact is an asymmetric partition.
type Link struct {
	From, To model.NodeID
}

// Faults is the declarative fault set applied to one link (or, via
// SetDefault, to every link without an explicit override). The zero
// value is a perfect link.
type Faults struct {
	// Drop is the probability one write (≈ one coalesced batch of
	// frames) is silently discarded.
	Drop float64
	// Corrupt is the probability one write has 1–3 bytes flipped before
	// reaching the socket — byte-level frame corruption the receiving
	// codec must reject without panicking.
	Corrupt float64
	// Duplicate is the probability one write is delivered twice.
	Duplicate float64
	// Reorder is the probability one write is held back and delivered
	// after the next write on the same connection.
	Reorder float64
	// Delay is added before every write; Jitter adds a deterministic
	// uniform extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// BytesPerSec caps the link's write bandwidth (0 = unlimited).
	BytesPerSec int
	// Cut blackholes the link: dials fail and established streams error
	// on their next IO — the partition primitive.
	Cut bool
}

// active reports whether any fault is set.
func (f Faults) active() bool { return f != Faults{} }

// linkState is the per-link mutable state: the explicit override (if
// any) and the write counter driving the deterministic decision stream.
type linkState struct {
	faults   Faults
	explicit bool   // faults overrides the Net default
	writes   uint64 // writes decided so far (the PRF counter)
}

// Net is one scenario's fault controller. All methods are safe for
// concurrent use; conns consult it on every IO, the schedule mutates it
// as steps fire.
type Net struct {
	seed int64

	mu    sync.Mutex
	def   Faults
	links map[Link]*linkState
	addrs map[string]model.NodeID // listen addr → node id
	// dial opens the underlying connection (swappable in tests).
	dial func(addr string) (net.Conn, error)
}

// New builds a fault controller. The seed fully determines every fault
// decision the controller will ever make; print it with any failure so
// the run can be replayed.
func New(seed int64) *Net {
	return &Net{
		seed:  seed,
		links: make(map[Link]*linkState),
		addrs: make(map[string]model.NodeID),
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
	}
}

// Seed returns the controller's seed (for failure messages).
func (c *Net) Seed() int64 { return c.seed }

// Register maps a node's listen address to its id so dials can be
// attributed to a link. Call it from the listener hook, before traffic
// flows.
func (c *Net) Register(id model.NodeID, addr string) {
	c.mu.Lock()
	c.addrs[addr] = id
	c.mu.Unlock()
}

// SetDial replaces the function that opens the underlying connection a
// link's fault middleware wraps — the seam that layers chaos over an
// alternative fabric such as internal/memnet. The default dials
// loopback TCP.
func (c *Net) SetDial(dial func(addr string) (net.Conn, error)) {
	c.mu.Lock()
	c.dial = dial
	c.mu.Unlock()
}

// SetDefault applies a fault set to every link without an explicit
// override (the "weather": e.g. 5% drop everywhere).
func (c *Net) SetDefault(f Faults) {
	c.mu.Lock()
	c.def = f
	c.mu.Unlock()
}

// SetLink overrides one directed link's faults.
func (c *Net) SetLink(from, to model.NodeID, f Faults) {
	c.mu.Lock()
	c.state(Link{from, to}).faults = f
	c.state(Link{from, to}).explicit = true
	c.mu.Unlock()
}

// SetLinkBoth overrides both directions between two nodes.
func (c *Net) SetLinkBoth(a, b model.NodeID, f Faults) {
	c.mu.Lock()
	for _, l := range []Link{{a, b}, {b, a}} {
		st := c.state(l)
		st.faults = f
		st.explicit = true
	}
	c.mu.Unlock()
}

// Cut blackholes one direction (asymmetric partition primitive): dials
// from→to fail, established from→to streams error on the next write.
func (c *Net) Cut(from, to model.NodeID) {
	c.mu.Lock()
	st := c.state(Link{from, to})
	st.faults.Cut = true
	st.explicit = true
	c.mu.Unlock()
}

// Partition cuts every link between the two groups, both directions —
// a full bidirectional split. Links inside each group are untouched.
func (c *Net) Partition(a, b []model.NodeID) {
	c.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			for _, l := range []Link{{x, y}, {y, x}} {
				st := c.state(l)
				st.faults.Cut = true
				st.explicit = true
			}
		}
	}
	c.mu.Unlock()
}

// PartitionOneWay cuts only a→b links: a's messages to b vanish while
// b still reaches a — the asymmetric split that wedges naive protocols.
func (c *Net) PartitionOneWay(a, b []model.NodeID) {
	c.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			st := c.state(Link{x, y})
			st.faults.Cut = true
			st.explicit = true
		}
	}
	c.mu.Unlock()
}

// Heal clears Cut on every link (explicit overrides keep their other
// faults) and clears Cut from the default.
func (c *Net) Heal() {
	c.mu.Lock()
	c.def.Cut = false
	for _, st := range c.links {
		st.faults.Cut = false
	}
	c.mu.Unlock()
}

// Clear removes every fault: explicit overrides are dropped and the
// default reset. Write counters are kept so the decision stream never
// rewinds.
func (c *Net) Clear() {
	c.mu.Lock()
	c.def = Faults{}
	for _, st := range c.links {
		st.faults = Faults{}
		st.explicit = false
	}
	c.mu.Unlock()
}

// state returns (creating if needed) the link's state. Caller holds mu.
func (c *Net) state(l Link) *linkState {
	st, ok := c.links[l]
	if !ok {
		st = &linkState{}
		c.links[l] = st
	}
	return st
}

// faultsFor resolves the effective faults on a link. Caller holds mu.
func (c *Net) faultsFor(l Link) Faults {
	if st, ok := c.links[l]; ok && st.explicit {
		return st.faults
	}
	return c.def
}

// Snapshot describes the current fault map (for logging).
func (c *Net) Snapshot() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := fmt.Sprintf("default=%+v", c.def)
	keys := make([]Link, 0, len(c.links))
	for l, st := range c.links {
		if st.explicit {
			keys = append(keys, l)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	for _, l := range keys {
		out += fmt.Sprintf(" %d->%d=%+v", l.From, l.To, c.links[l].faults)
	}
	return out
}

// DialFrom is the livenet dial hook: it resolves the destination node
// from the registry, refuses the dial when the link is cut, and wraps
// the established connection with the link's fault middleware. An
// unregistered address passes through unwrapped (no link to attribute
// faults to).
func (c *Net) DialFrom(from model.NodeID, addr string) (net.Conn, error) {
	c.mu.Lock()
	to, known := c.addrs[addr]
	var f Faults
	if known {
		f = c.faultsFor(Link{from, to})
	}
	dial := c.dial
	c.mu.Unlock()
	if known && f.Cut {
		return nil, fmt.Errorf("chaos: link %d->%d cut", from, to)
	}
	raw, err := dial(addr)
	if err != nil || !known {
		return raw, err
	}
	return c.Wrap(raw, from, to), nil
}

// Dialer curries DialFrom for one sender — the shape livenet's
// Node.SetDialer wants.
func (c *Net) Dialer(from model.NodeID) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) { return c.DialFrom(from, addr) }
}

// Wrap applies the from→to link's fault middleware to an established
// connection (exported for tests that build their own pipes).
func (c *Net) Wrap(raw net.Conn, from, to model.NodeID) net.Conn {
	return &conn{Conn: raw, net: c, link: Link{from, to}}
}

// decision is one write's resolved fault plan.
type decision struct {
	faults  Faults
	drop    bool
	corrupt bool
	dup     bool
	reorder bool
	delay   time.Duration
	// rnd seeds corruption byte positions for this write.
	rnd uint64
}

// decide resolves the next write's fault plan on a link, advancing the
// link's write counter. The randomness is PRF(seed, link, index) — see
// the package comment for why that makes replays exact.
func (c *Net) decide(l Link, size int) decision {
	c.mu.Lock()
	st := c.state(l)
	idx := st.writes
	st.writes++
	f := c.faultsFor(l)
	c.mu.Unlock()

	base := mix64(uint64(c.seed) ^ mix64(uint64(l.From)*0x9e3779b97f4a7c15+uint64(l.To)+0x7f4a7c15))
	draw := func(k uint64) float64 {
		return float64(mix64(base^mix64(idx*8+k))>>11) / float64(1<<53)
	}
	d := decision{faults: f, rnd: mix64(base ^ mix64(idx*8+5))}
	if f.Cut {
		return d
	}
	d.drop = draw(0) < f.Drop
	d.corrupt = draw(1) < f.Corrupt
	d.dup = draw(2) < f.Duplicate
	d.reorder = draw(3) < f.Reorder
	d.delay = f.Delay
	if f.Jitter > 0 {
		d.delay += time.Duration(draw(4) * float64(f.Jitter))
	}
	if f.BytesPerSec > 0 {
		d.delay += time.Duration(float64(size) / float64(f.BytesPerSec) * float64(time.Second))
	}
	return d
}

// mix64 is the splitmix64 finalizer — a bijective 64-bit mixer used as
// the counter-based PRF behind every fault decision.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// conn is the per-connection middleware. Writes travel the link
// From→To and carry its faults; reads (the handshake ack on a dialed
// stream) only honor the reverse link's Cut.
type conn struct {
	net.Conn
	net  *Net
	link Link
	// held is a reordered write waiting to be delivered after the next
	// one (dropped if the conn closes first — which is loss, i.e. fine).
	held []byte
}

// errCut reports IO on a cut link.
type errCut struct{ l Link }

func (e errCut) Error() string   { return fmt.Sprintf("chaos: link %d->%d cut", e.l.From, e.l.To) }
func (e errCut) Timeout() bool   { return false }
func (e errCut) Temporary() bool { return false }

func (cn *conn) Write(p []byte) (int, error) {
	d := cn.net.decide(cn.link, len(p))
	if d.faults.Cut {
		cn.Conn.Close()
		return 0, errCut{cn.link}
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.drop {
		// Silent loss: the sender believes the batch reached the kernel,
		// exactly like bytes that died in a peer's socket buffer.
		cn.dropHeld()
		return len(p), nil
	}
	out := p
	if d.corrupt {
		out = corruptCopy(p, d.rnd)
	}
	if d.reorder && cn.held == nil {
		cn.held = append([]byte(nil), out...)
		return len(p), nil
	}
	if _, err := cn.Conn.Write(out); err != nil {
		return 0, err
	}
	if d.dup {
		cn.Conn.Write(out)
	}
	if h := cn.held; h != nil {
		cn.held = nil
		cn.Conn.Write(h)
	}
	return len(p), nil
}

func (cn *conn) dropHeld() { cn.held = nil }

func (cn *conn) Read(p []byte) (int, error) {
	cn.net.mu.Lock()
	cut := cn.net.faultsFor(Link{cn.link.To, cn.link.From}).Cut
	cn.net.mu.Unlock()
	if cut {
		cn.Conn.Close()
		return 0, errCut{Link{cn.link.To, cn.link.From}}
	}
	return cn.Conn.Read(p)
}

// corruptCopy flips 1–3 bytes of a copy of p at PRF-derived offsets.
func corruptCopy(p []byte, rnd uint64) []byte {
	out := append([]byte(nil), p...)
	if len(out) == 0 {
		return out
	}
	flips := 1 + int(rnd%3)
	for i := 0; i < flips; i++ {
		r := mix64(rnd + uint64(i))
		out[int(r%uint64(len(out)))] ^= byte(r>>8) | 1
	}
	return out
}
