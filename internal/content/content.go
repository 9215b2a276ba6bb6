// Package content is the data plane's storage layer: fixed-size
// content-addressed chunks, per-document manifests listing SHA-256
// chunk hashes, and a verifying reassembly buffer that supports
// resume-from-last-verified-chunk.
//
// The store holds two kinds of documents. Put installs explicit bytes
// (a node that published or downloaded real content). Register marks a
// document synthetic: its bytes are generated deterministically from
// (doc id, byte offset), so every replica holder serves an identical,
// verifiable stream with zero resident memory — the stand-in for "the
// file is on this peer's disk" at simulation scale.
package content

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"p2pshare/internal/catalog"
)

// DefaultChunkSize is the transfer unit. 64 KB sits well under the wire
// codec's 4 MB frame cap while keeping per-chunk overhead (one frame
// header + 32-byte hash) below 0.1%.
const DefaultChunkSize = 64 << 10

// HashSize is the size of a chunk id in the manifest hash blob.
const HashSize = sha256.Size

var (
	// ErrBadIndex reports a chunk index outside the manifest.
	ErrBadIndex = errors.New("content: chunk index out of range")
	// ErrHashMismatch reports chunk bytes that fail verification
	// against the manifest — corruption or a hostile sender.
	ErrHashMismatch = errors.New("content: chunk hash mismatch")
	// ErrIncomplete reports an assembly read before every chunk landed.
	ErrIncomplete = errors.New("content: assembly incomplete")
)

// Manifest is the per-document chunk table: document size, chunk size,
// and the SHA-256 of every chunk concatenated into one blob (the wire
// representation). A fetcher that holds the manifest can verify each
// arriving chunk independently and resume from any prefix.
type Manifest struct {
	Doc       catalog.DocID
	Size      int64
	ChunkSize int
	Hashes    []byte // NumChunks * HashSize bytes
}

// NumChunks is ceil(Size / ChunkSize).
func (m *Manifest) NumChunks() int {
	if m.Size <= 0 || m.ChunkSize <= 0 {
		return 0
	}
	return int((m.Size + int64(m.ChunkSize) - 1) / int64(m.ChunkSize))
}

// ChunkLen is the byte length of chunk i (the tail chunk may be short).
func (m *Manifest) ChunkLen(i int) int {
	n := m.NumChunks()
	if i < 0 || i >= n {
		return 0
	}
	if i == n-1 {
		if rem := m.Size % int64(m.ChunkSize); rem != 0 {
			return int(rem)
		}
	}
	return m.ChunkSize
}

// Hash returns the stored hash of chunk i (nil if out of range).
func (m *Manifest) Hash(i int) []byte {
	if i < 0 || (i+1)*HashSize > len(m.Hashes) {
		return nil
	}
	return m.Hashes[i*HashSize : (i+1)*HashSize]
}

// Verify checks chunk i's bytes against the manifest.
func (m *Manifest) Verify(i int, data []byte) bool {
	want := m.Hash(i)
	if want == nil || len(data) != m.ChunkLen(i) {
		return false
	}
	got := sha256.Sum256(data)
	return string(got[:]) == string(want)
}

// Valid reports whether the manifest is internally consistent — the
// hash blob covers exactly NumChunks chunks and sizes are sane. Wire
// handlers call this before trusting a received manifest.
func (m *Manifest) Valid() bool {
	if m.Size < 0 || m.ChunkSize <= 0 {
		return false
	}
	return len(m.Hashes) == m.NumChunks()*HashSize
}

// Root is a single hash pinning the whole manifest (doc id, size,
// chunk size, every chunk hash) — what tests and callers compare to
// assert byte-identical transfers.
func (m *Manifest) Root() [HashSize]byte {
	h := sha256.New()
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(m.Doc))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m.Size))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.ChunkSize))
	h.Write(hdr[:])
	h.Write(m.Hashes)
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// BuildManifest chunks data and hashes every chunk.
func BuildManifest(doc catalog.DocID, data []byte, chunkSize int) *Manifest {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return buildManifest(doc, data, int64(len(data)), chunkSize)
}

// buildManifest hashes every chunk of a size-byte document. Explicit
// chunks are hashed where they lie in data; synthetic ones (data nil)
// are generated into one reused chunk buffer.
func buildManifest(doc catalog.DocID, data []byte, size int64, chunkSize int) *Manifest {
	m := &Manifest{Doc: doc, Size: size, ChunkSize: chunkSize}
	n := m.NumChunks()
	m.Hashes = make([]byte, 0, n*HashSize)
	var buf []byte
	for i := 0; i < n; i++ {
		off := int64(i) * int64(chunkSize)
		end := off + int64(m.ChunkLen(i))
		var c []byte
		if data != nil {
			c = data[off:end]
		} else {
			buf = appendSpan(buf[:0], doc, nil, off, end)
			c = buf
		}
		h := sha256.Sum256(c)
		m.Hashes = append(m.Hashes, h[:]...)
	}
	return m
}

// synthKey names one synthetic manifest: the same document cut at
// another size or chunk size has another manifest.
type synthKey struct {
	doc       catalog.DocID
	size      int64
	chunkSize int
}

// synthManifests maps each synthKey to a sync.OnceValue that builds its
// manifest. A synthetic document's bytes, and so its manifest, are a
// pure function of the key, so the manifest is hashed once per process
// and every Store serves that one immutable copy. Entries are never
// removed: there is one per synthetic document some store in the process
// has answered a manifest for, a set the catalog bounds.
var synthManifests sync.Map

// synthBuilds counts the synthetic manifests built; the package's tests
// read it.
var synthBuilds atomic.Int64

// syntheticManifest returns the shared manifest for k, building it on
// the first call. Concurrent first calls wait for that one build.
func syntheticManifest(k synthKey) *Manifest {
	f, ok := synthManifests.Load(k)
	if !ok {
		f, _ = synthManifests.LoadOrStore(k, sync.OnceValue(func() *Manifest {
			synthBuilds.Add(1)
			return buildManifest(k.doc, nil, k.size, k.chunkSize)
		}))
	}
	return f.(func() *Manifest)()
}

// splitmix64 is the synthetic byte generator's word function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// syntheticFill writes doc's bytes for [off, off+len(dst)) into dst.
// Byte content is a pure function of (doc, absolute offset), so chunk
// boundaries — and therefore chunk size — never change the stream: the
// byte at offset o is byte o&7 (little-endian) of the generator word
// o>>3. Whole words are stored with one 8-byte write each; only a span's
// unaligned head and tail go byte by byte.
func syntheticFill(doc catalog.DocID, off int64, dst []byte) {
	const stride = 0xd1342543de82ef95
	seed := splitmix64(uint64(doc)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	pos := (uint64(off) >> 3) * stride // word index times stride, advanced by addition
	if b := uint(off & 7); b != 0 {
		v := splitmix64(seed^pos) >> (8 * b)
		n := min(8-int(b), len(dst))
		for i := 0; i < n; i++ {
			dst[i] = byte(v >> (8 * uint(i)))
		}
		dst = dst[n:]
		pos += stride
	}
	for ; len(dst) >= 8; dst = dst[8:] {
		binary.LittleEndian.PutUint64(dst, splitmix64(seed^pos))
		pos += stride
	}
	if len(dst) > 0 {
		v := splitmix64(seed ^ pos)
		for i := range dst {
			dst[i] = byte(v >> (8 * uint(i)))
		}
	}
}

// appendSpan appends bytes [off, end) of a document to dst — copied
// from data if explicit, generated if synthetic (data nil). Every chunk,
// whole-document and manifest read goes through it; callers guarantee
// 0 <= off <= end <= document size.
func appendSpan(dst []byte, doc catalog.DocID, data []byte, off, end int64) []byte {
	if data != nil {
		return append(dst, data[off:end]...)
	}
	n := len(dst)
	dst = slices.Grow(dst, int(end-off))[:n+int(end-off)]
	syntheticFill(doc, off, dst[n:])
	return dst
}

// chunkSpan is the byte range of chunk idx in a size-byte document, or
// false when idx lies outside it.
func chunkSpan(size int64, chunkSize, idx int) (off, end int64, ok bool) {
	off = int64(idx) * int64(chunkSize)
	if idx < 0 || off >= size {
		return 0, 0, false
	}
	return off, min(off+int64(chunkSize), size), true
}

// SyntheticChunk materializes chunk idx of a synthetic document.
func SyntheticChunk(doc catalog.DocID, size int64, chunkSize, idx int) []byte {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	off, end, ok := chunkSpan(size, chunkSize, idx)
	if !ok {
		return nil
	}
	return appendSpan(nil, doc, nil, off, end)
}

// SyntheticDoc materializes a whole synthetic document — the oracle
// tests compare fetched bytes against.
func SyntheticDoc(doc catalog.DocID, size int64) []byte {
	return appendSpan(make([]byte, 0, size), doc, nil, 0, size)
}

// docEntry is one held document: explicit bytes, or synthetic (data
// nil) where only the size is recorded. Cached entries (demand-driven
// replicas installed by PutCached) additionally carry a last-hit stamp
// so the budget eviction and decay passes can order them; base entries
// (Put/Register) are never evicted or decayed.
type docEntry struct {
	data   []byte
	size   int64
	cached bool
	// last is the store clock value of the most recent serve; a pointer
	// so touch-on-serve works under the read lock shared by concurrent
	// chunk streams.
	last *atomic.Int64
}

// Store is a node's chunk store: the set of documents it can serve,
// with their manifests. Safe for concurrent use; reads (Chunk,
// Manifest) take only an RLock, so many transfer streams can be served
// in parallel.
type Store struct {
	mu        sync.RWMutex
	chunkSize int
	docs      map[catalog.DocID]docEntry
	// manifests holds the manifest of every explicit document, installed
	// under mu with its bytes. Synthetic documents have no entry: their
	// manifests come from the shared synthManifests table.
	manifests map[catalog.DocID]*Manifest

	// clock is a logical tick advanced on every cached-entry serve;
	// LRU ordering compares these stamps, so eviction and decay are
	// deterministic under test (no wall-clock reads).
	clock atomic.Int64
	// cacheBudget caps the total bytes held by cached entries
	// (0 = caching disabled); cacheBytes is the current total.
	cacheBudget int64
	cacheBytes  int64
	// decayMark is the clock value at the previous Decay call: cached
	// entries not served since then are dropped by the next Decay.
	decayMark int64
}

// NewStore creates a store serving chunks of the given size
// (0 → DefaultChunkSize).
func NewStore(chunkSize int) *Store {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Store{
		chunkSize: chunkSize,
		docs:      make(map[catalog.DocID]docEntry),
		manifests: make(map[catalog.DocID]*Manifest),
	}
}

// ChunkSize returns the store's transfer unit.
func (s *Store) ChunkSize() int { return s.chunkSize }

// Register marks doc as held with synthetic backing of the given size;
// its manifest is the process-wide one for (doc, size, chunk size).
// An existing explicit blob is left in place (real bytes win).
func (s *Store) Register(doc catalog.DocID, size int64) {
	if size < 0 {
		return
	}
	s.mu.Lock()
	if e, ok := s.docs[doc]; !ok || (e.data == nil && e.size != size) {
		s.docs[doc] = docEntry{size: size}
	}
	s.mu.Unlock()
}

// Put installs explicit bytes for doc (replacing any synthetic
// registration or cached copy) and returns its manifest.
func (s *Store) Put(doc catalog.DocID, data []byte) *Manifest {
	return s.PutVerified(BuildManifest(doc, data, s.chunkSize), data)
}

// PutVerified is Put for a caller that holds the manifest data was
// verified against (a completed transfer): nothing is hashed unless the
// manifest was cut for another chunk size, and then outside the lock.
func (s *Store) PutVerified(m *Manifest, data []byte) *Manifest {
	size := int64(len(data))
	if m.ChunkSize != s.chunkSize || m.Size != size {
		m = BuildManifest(m.Doc, data, s.chunkSize)
	}
	s.mu.Lock()
	s.uncacheLocked(m.Doc)
	s.docs[m.Doc] = docEntry{data: data, size: size}
	s.manifests[m.Doc] = m
	s.mu.Unlock()
	return m
}

// SetCacheBudget sets the byte budget for cached (demand-driven)
// replicas. Shrinking the budget evicts least-recently-hit cached
// entries until the remainder fits; 0 disables caching and drops every
// cached entry.
func (s *Store) SetCacheBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	s.mu.Lock()
	s.cacheBudget = bytes
	s.evictLocked(0)
	s.mu.Unlock()
}

// CacheBytes returns the bytes currently held by cached replicas.
func (s *Store) CacheBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cacheBytes
}

// CachedLen is the number of cached (evictable) documents held.
func (s *Store) CachedLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.docs {
		if e.cached {
			n++
		}
	}
	return n
}

// PutCached installs doc as a demand-driven replica under the cache
// budget, evicting least-recently-hit cached entries to make room.
// It reports whether the copy was installed: false when caching is
// disabled, the document alone exceeds the budget, or the store
// already holds the document (a base copy always wins).
func (s *Store) PutCached(doc catalog.DocID, data []byte) bool {
	return s.PutCachedVerified(BuildManifest(doc, data, s.chunkSize), data)
}

// PutCachedVerified is PutCached for a caller that holds the manifest
// data was verified against (a completed transfer): nothing is hashed,
// and no serve ever waits on the write lock behind a SHA-256 pass. A
// manifest cut for another chunk size is rebuilt, still outside the lock.
func (s *Store) PutCachedVerified(m *Manifest, data []byte) bool {
	size := int64(len(data))
	if m.ChunkSize != s.chunkSize || m.Size != size {
		m = BuildManifest(m.Doc, data, s.chunkSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cacheBudget <= 0 || size > s.cacheBudget {
		return false
	}
	if _, ok := s.docs[m.Doc]; ok {
		return false
	}
	s.evictLocked(size)
	last := new(atomic.Int64)
	last.Store(s.clock.Add(1))
	s.docs[m.Doc] = docEntry{data: data, size: size, cached: true, last: last}
	s.manifests[m.Doc] = m
	s.cacheBytes += size
	return true
}

// evictLocked drops least-recently-hit cached entries until cached
// bytes plus the incoming size fit the budget. Caller holds mu.
func (s *Store) evictLocked(incoming int64) {
	for s.cacheBytes+incoming > s.cacheBudget && s.cacheBytes > 0 {
		victim := catalog.DocID(0)
		oldest := int64(0)
		found := false
		for d, e := range s.docs {
			if !e.cached {
				continue
			}
			if hit := e.last.Load(); !found || hit < oldest {
				victim, oldest, found = d, hit, true
			}
		}
		if !found {
			return
		}
		s.uncacheLocked(victim)
		delete(s.docs, victim)
		delete(s.manifests, victim)
	}
}

// uncacheLocked credits back the byte accounting if doc is a cached
// entry (without removing it). Caller holds mu.
func (s *Store) uncacheLocked(doc catalog.DocID) {
	if e, ok := s.docs[doc]; ok && e.cached {
		s.cacheBytes -= e.size
	}
}

// Decay drops cached replicas that have not served a chunk or manifest
// since the previous Decay call, returning the dropped doc ids — the
// aging half of demand-driven replication: fetched copies disappear
// once the crowd moves on, base copies never do.
func (s *Store) Decay() []catalog.DocID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dropped []catalog.DocID
	for d, e := range s.docs {
		if e.cached && e.last.Load() <= s.decayMark {
			dropped = append(dropped, d)
		}
	}
	for _, d := range dropped {
		s.uncacheLocked(d)
		delete(s.docs, d)
		delete(s.manifests, d)
	}
	s.decayMark = s.clock.Load()
	return dropped
}

// touch stamps a cached entry's last-hit clock; called under RLock
// from the serve paths (the pointer makes that safe).
func (s *Store) touch(e docEntry) {
	if e.cached {
		e.last.Store(s.clock.Add(1))
	}
}

// Drop forgets doc entirely.
func (s *Store) Drop(doc catalog.DocID) {
	s.mu.Lock()
	s.uncacheLocked(doc)
	delete(s.docs, doc)
	delete(s.manifests, doc)
	s.mu.Unlock()
}

// Has reports whether this store can serve doc.
func (s *Store) Has(doc catalog.DocID) bool {
	s.mu.RLock()
	_, ok := s.docs[doc]
	s.mu.RUnlock()
	return ok
}

// Len is the number of held documents.
func (s *Store) Len() int {
	s.mu.RLock()
	n := len(s.docs)
	s.mu.RUnlock()
	return n
}

// Manifest returns doc's manifest, or false if doc is not held. An
// explicit document's manifest was installed with its bytes; a
// synthetic one's is shared by every Store in the process and hashed
// once, by whichever request reaches it first. The returned manifest
// is shared: callers must not modify it.
func (s *Store) Manifest(doc catalog.DocID) (*Manifest, bool) {
	s.mu.RLock()
	e, held := s.docs[doc]
	m := s.manifests[doc]
	if held {
		s.touch(e)
	}
	s.mu.RUnlock()
	if !held {
		return nil, false
	}
	if e.data == nil {
		m = syntheticManifest(synthKey{doc, e.size, s.chunkSize})
	}
	return m, true
}

// lookup returns doc's entry, stamping a cached entry's last-hit clock.
func (s *Store) lookup(doc catalog.DocID) (docEntry, bool) {
	s.mu.RLock()
	e, ok := s.docs[doc]
	if ok {
		s.touch(e)
	}
	s.mu.RUnlock()
	return e, ok
}

// span is lookup plus the byte range of chunk idx; false if the doc is
// not held or the index is out of range.
func (s *Store) span(doc catalog.DocID, idx int) (e docEntry, off, end int64, ok bool) {
	if e, ok = s.lookup(doc); ok {
		off, end, ok = chunkSpan(e.size, s.chunkSize, idx)
	}
	return e, off, end, ok
}

// ChunkLen returns the byte length of chunk idx, or false if the doc is
// not held or the index is out of range.
func (s *Store) ChunkLen(doc catalog.DocID, idx int) (int, bool) {
	_, off, end, ok := s.span(doc, idx)
	return int(end - off), ok
}

// AppendChunk appends chunk idx to dst, or returns (dst, false) if the
// doc is not held or the index is out of range. With spare capacity in
// dst it allocates nothing — synthetic chunks are generated in place,
// explicit ones copied once — which is how the transport writer
// materializes a chunk straight into the frame it is sending.
func (s *Store) AppendChunk(dst []byte, doc catalog.DocID, idx int) ([]byte, bool) {
	e, off, end, ok := s.span(doc, idx)
	if !ok {
		return dst, false
	}
	return appendSpan(dst, doc, e.data, off, end), true
}

// Chunk returns a fresh copy of chunk idx, or false if the doc is not
// held or the index is out of range.
func (s *Store) Chunk(doc catalog.DocID, idx int) ([]byte, bool) {
	return s.AppendChunk(nil, doc, idx)
}

// Bytes materializes the full document (for local hits in Fetch).
func (s *Store) Bytes(doc catalog.DocID) ([]byte, bool) {
	e, ok := s.lookup(doc)
	if !ok {
		return nil, false
	}
	return appendSpan(make([]byte, 0, e.size), doc, e.data, 0, e.size), true
}

// Assembly reassembles a document from chunks, verifying each against
// the manifest as it lands. It is the resume point: after a source
// dies, Missing lists exactly the chunks still owed and every verified
// chunk is kept.
type Assembly struct {
	man  *Manifest
	buf  []byte
	have []bool
	got  int
	// low is the first chunk not yet verified: everything below it has
	// landed, so Missing starts there instead of rescanning the prefix.
	low int
}

// NewAssembly allocates the reassembly buffer for m.
func NewAssembly(m *Manifest) *Assembly {
	return &Assembly{
		man:  m,
		buf:  make([]byte, m.Size),
		have: make([]bool, m.NumChunks()),
	}
}

// Manifest returns the manifest being assembled against.
func (a *Assembly) Manifest() *Manifest { return a.man }

// Add verifies and installs chunk idx. It returns (true, nil) when the
// chunk was new and verified, (false, nil) for a duplicate of an
// already-verified chunk, and (false, err) for a bad index or hash
// mismatch.
func (a *Assembly) Add(idx int, data []byte) (bool, error) {
	if idx < 0 || idx >= len(a.have) {
		return false, fmt.Errorf("%w: %d of %d", ErrBadIndex, idx, len(a.have))
	}
	if a.have[idx] {
		return false, nil
	}
	if !a.man.Verify(idx, data) {
		return false, fmt.Errorf("%w: chunk %d", ErrHashMismatch, idx)
	}
	copy(a.buf[int64(idx)*int64(a.man.ChunkSize):], data)
	a.have[idx] = true
	a.got++
	for a.low < len(a.have) && a.have[a.low] {
		a.low++
	}
	return true, nil
}

// Complete reports whether every chunk has been verified.
func (a *Assembly) Complete() bool { return a.got == len(a.have) }

// Got is the number of verified chunks so far.
func (a *Assembly) Got() int { return a.got }

// Missing returns up to limit indexes of chunks not yet verified
// (limit <= 0 means all), in ascending order. The scan starts at the
// end of the verified prefix, so a windowed caller pays for its limit
// plus the out-of-order arrivals inside it, never for the document.
func (a *Assembly) Missing(limit int) []int {
	if rest := len(a.have) - a.got; limit <= 0 || limit > rest {
		limit = rest
	}
	out := make([]int, 0, limit)
	for i := a.low; len(out) < limit; i++ {
		if !a.have[i] {
			out = append(out, i)
		}
	}
	return out
}

// Bytes returns the assembled document; ErrIncomplete until every
// chunk verified.
func (a *Assembly) Bytes() ([]byte, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("%w: %d/%d chunks", ErrIncomplete, a.got, len(a.have))
	}
	return a.buf, nil
}
