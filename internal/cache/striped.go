package cache

import (
	"sync"

	"p2pshare/internal/catalog"
)

// Striped is a byte-budgeted document cache safe for concurrent use: the
// key space is partitioned over independently locked Cache stripes, so
// goroutines touching different documents proceed in parallel (a
// livenet node reads and fills its requester cache from caller
// goroutines and from the readers that complete queries, at once). Each stripe gets an equal
// share of the byte budget; eviction is per-stripe, which approximates
// the single-cache policy the way a set-associative cache approximates
// full associativity.
//
// Stripe count scales with capacity — one stripe per stripeBudget bytes,
// capped at maxStripes — so a small cache degenerates to a single stripe
// with exactly the sequential Cache's eviction behaviour.
const (
	stripeBudget = 4 << 20 // one stripe per 4 MB of capacity
	maxStripes   = 16
)

// Striped is the concurrent counterpart of Cache.
type Striped struct {
	stripes []stripe
}

type stripe struct {
	mu sync.Mutex
	c  *Cache
}

// NewStriped creates a concurrent cache with the given byte capacity,
// split evenly across stripes. Capacity 0 disables caching.
func NewStriped(policy Policy, capacity int64) (*Striped, error) {
	n := int(capacity / stripeBudget)
	if n < 1 {
		n = 1
	}
	if n > maxStripes {
		n = maxStripes
	}
	s := &Striped{stripes: make([]stripe, n)}
	per := capacity / int64(n)
	for i := range s.stripes {
		c, err := New(policy, per)
		if err != nil {
			return nil, err
		}
		s.stripes[i].c = c
	}
	return s, nil
}

// stripeFor hashes a document id to its owning stripe (splitmix64
// finalizer — document ids are often sequential, so raw modulo would
// imbalance the stripes badly under range-local workloads).
func (s *Striped) stripeFor(d catalog.DocID) *stripe {
	x := uint64(d)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return &s.stripes[x%uint64(len(s.stripes))]
}

// Contains looks a document up, updating recency/frequency and hit
// statistics on its stripe.
func (s *Striped) Contains(d catalog.DocID) bool {
	st := s.stripeFor(d)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.c.Contains(d)
}

// Peek reports presence without touching statistics or ordering.
func (s *Striped) Peek(d catalog.DocID) bool {
	st := s.stripeFor(d)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.c.Peek(d)
}

// Insert adds a document of the given size, evicting within the owning
// stripe until it fits. Documents larger than a stripe's share of the
// capacity are not cached.
func (s *Striped) Insert(d catalog.DocID, size int64) {
	st := s.stripeFor(d)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.c.Insert(d, size)
}

// Len returns the number of cached documents across all stripes.
func (s *Striped) Len() int {
	total := 0
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		total += s.stripes[i].c.Len()
		s.stripes[i].mu.Unlock()
	}
	return total
}

// UsedBytes returns the cached byte total across all stripes.
func (s *Striped) UsedBytes() int64 {
	var total int64
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		total += s.stripes[i].c.UsedBytes()
		s.stripes[i].mu.Unlock()
	}
	return total
}

// Stats returns summed raw hit/miss counters.
func (s *Striped) Stats() (hits, misses int64) {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		h, m := s.stripes[i].c.Stats()
		s.stripes[i].mu.Unlock()
		hits += h
		misses += m
	}
	return hits, misses
}

// HitRatio returns hits/(hits+misses) over all stripes, 0 before any
// lookup.
func (s *Striped) HitRatio() float64 {
	h, m := s.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
