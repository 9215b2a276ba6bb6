package livenet

// addrBook is a node's view of peer listen addresses with copy-on-write
// sharing. Launch used to hand every node a PRIVATE full copy of the
// deployment book — O(N²) map entries across a cluster, which alone is
// gigabytes at the paper's 10k-node scale. Instead every node now
// aliases one immutable base map built once at Launch and keeps its own
// divergence privately: an overlay of adds/updates and a deletion set,
// plus an incrementally maintained live-entry count so len() stays O(1).
//
// Concurrency contract: identical to the plain map it replaces — every
// writer holds routeMu.Lock; query code and API accessors read under
// routeMu.RLock. The base map is frozen before any node starts, so
// aliasing it across nodes is safe.

import "p2pshare/internal/model"

type addrBook struct {
	base map[model.NodeID]string   // shared, immutable after Launch
	over map[model.NodeID]string   // node-private adds and updates
	dead map[model.NodeID]struct{} // node-private deletions of base entries
	n    int                       // live entries (base ∪ over) \ dead
}

func newAddrBook() *addrBook {
	return &addrBook{
		over: make(map[model.NodeID]string),
		dead: make(map[model.NodeID]struct{}),
	}
}

// setBase installs the shared Launch-time book under the node's private
// divergence (normally empty but for the node's own entry).
func (b *addrBook) setBase(base map[model.NodeID]string) {
	b.base = base
	b.n = len(base)
	for id := range b.over {
		if _, inBase := base[id]; !inBase {
			b.n++
		}
	}
	for id := range b.dead {
		if _, inBase := base[id]; inBase {
			b.n--
		}
	}
}

func (b *addrBook) get(id model.NodeID) (string, bool) {
	if _, gone := b.dead[id]; gone {
		return "", false
	}
	if addr, ok := b.over[id]; ok {
		return addr, true
	}
	addr, ok := b.base[id]
	return addr, ok
}

// has reports presence without materializing the address.
func (b *addrBook) has(id model.NodeID) bool {
	_, ok := b.get(id)
	return ok
}

func (b *addrBook) set(id model.NodeID, addr string) {
	if !b.has(id) {
		b.n++
	}
	delete(b.dead, id)
	if base, ok := b.base[id]; ok && base == addr {
		// Re-converged with the shared base: drop the divergence.
		delete(b.over, id)
		return
	}
	b.over[id] = addr
}

// del removes an entry, reporting whether it was present.
func (b *addrBook) del(id model.NodeID) bool {
	if !b.has(id) {
		return false
	}
	b.n--
	delete(b.over, id)
	if _, inBase := b.base[id]; inBase {
		b.dead[id] = struct{}{}
	}
	return true
}

func (b *addrBook) len() int { return b.n }

// forEach visits every live entry; return false from fn to stop early.
// Iteration order is unspecified, like the map it replaced.
func (b *addrBook) forEach(fn func(id model.NodeID, addr string) bool) {
	for id, addr := range b.over {
		if _, gone := b.dead[id]; gone {
			continue
		}
		if !fn(id, addr) {
			return
		}
	}
	for id, addr := range b.base {
		if _, gone := b.dead[id]; gone {
			continue
		}
		if _, shadowed := b.over[id]; shadowed {
			continue
		}
		if !fn(id, addr) {
			return
		}
	}
}

// snapshot copies the live entries into a fresh map (wire messages, the
// Peers accessor).
func (b *addrBook) snapshot() map[model.NodeID]string {
	out := make(map[model.NodeID]string, b.n)
	b.forEach(func(id model.NodeID, addr string) bool {
		out[id] = addr
		return true
	})
	return out
}
