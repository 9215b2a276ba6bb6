// Package wire implements the livenet binary wire format: a compact,
// length-prefixed encoding for every envelope the live transport
// carries (query, result, publish, publish-ack, hello, address book,
// and — since generation 3 — the membership probes and adaptation
// messages of the live dynamics layer).
//
// Design goals, in order:
//
//   - No reflection on the hot path. Every message has an explicit,
//     hand-rolled field layout — integers are varints (zigzag for signed
//     values), strings and lists are length-prefixed.
//   - No steady-state allocations on encode. Frames are built in
//     sync.Pool-backed scratch buffers; Reader reuses one payload buffer
//     across frames, so the decode side allocates only what the message
//     itself must own (doc slices, strings).
//   - Corrupt input never panics. Every read is bounds-checked and list
//     lengths are validated against the remaining payload before any
//     allocation, so a hostile or truncated frame costs at most one
//     bounded error.
//   - One trust boundary. Every node, cluster, category and document id
//     is checked against the deployment's Bounds as it is decoded.
//
// Frame layout (after the one-time stream-open handshake, see stream.go):
//
//	frame   := uvarint(len(payload)) payload
//	payload := tag(1 byte) varint(sender) body
//
// where body is the tag-specific field sequence documented on each
// append function below.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"p2pshare/internal/catalog"
	"p2pshare/internal/membership"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// Version is the codec generation this package speaks. It is carried in
// the stream preamble and echoed in the receiver's ack (stream.go); a
// peer that presents or acks any other value is refused. Frames of
// every generation so far:
//
//   - 2: query, result, publish, publish-ack, hello, book.
//   - 3: membership (ping, ack, ping-req, leave), adaptation
//     (leader-load, move, meta-update), the Dead tombstones of Book.
//   - 4: the content data plane — manifest-req, manifest, chunk-req
//     (which doubles as the flow-control credit grant), chunk.
//   - 5: holder push replication — the replicate frame (tag 18), and
//     LeaderLoad's serve total and under-loaded-member list.
//   - 6: push replication withdrawn — tag 18 is retired, never reused,
//     and LeaderLoad is back to its generation-3 fields.
//   - 7: one epidemic channel — ping, ack and ping-req carry a second
//     piggyback list of DCRT rows, and the move (12) and meta-update (13)
//     tags are retired, never reused.
//   - 8: no field the envelope already carries or no receiver reads —
//     result and publish drop the answering node and the publisher (the
//     decoder sets both from the sender), publish its dummy flag and
//     publish-ack its accepted flag.
const Version = 8

// MaxFrameBytes bounds one frame's payload. The largest legitimate
// message is an address book; at ~30 bytes per peer this admits over a
// hundred thousand peers while keeping a corrupt length prefix from
// forcing a giant allocation.
const MaxFrameBytes = 4 << 20

// Message type tags.
const (
	tagQuery      = 1
	tagResult     = 2
	tagPublish    = 3
	tagPublishAck = 4
	tagHello      = 5
	tagBook       = 6
	tagPing       = 7
	tagAck        = 8
	tagPingReq    = 9
	tagLeave      = 10
	tagLeaderLoad = 11
	// 12 and 13 were the move and meta-update frames (generations 3–6);
	// category moves ride the probes' DCRT lists instead. Both tags are
	// retired and decode as unknown tags.
	tagManifestReq = 14
	tagManifest    = 15
	tagChunkReq    = 16
	tagChunk       = 17
	// 18 was the replicate frame (generation 5 only); it is retired and
	// decodes as an unknown tag.
)

// ErrMalformed is wrapped by every error that reports a frame's own
// bytes as bad, an id outside the Bounds included.
var ErrMalformed = errors.New("wire: malformed frame")

// Bounds is one deployment's shape as the decoder sees it: a frame is
// accepted only if each id it carries lies in [0, bound) for its kind.
type Bounds struct{ Nodes, Clusters, Categories, Docs int }

// HasDoc applies the decoder's document-id test to local input.
func (b Bounds) HasDoc(d catalog.DocID) bool { return inRange(int64(d), b.Docs) }

// inRange reports whether v lies in [0, bound): a negative v wraps past it.
func inRange(v int64, bound int) bool { return uint64(v) < uint64(bound) }

// Unbounded admits every id an int32 field can hold except the largest:
// the Bounds DecodeEnvelope decodes under.
var Unbounded = Bounds{Nodes: math.MaxInt32, Clusters: math.MaxInt32, Categories: math.MaxInt32, Docs: math.MaxInt32}

// hashSize mirrors content.HashSize (sha256) without importing the
// store package: the codec only needs it to validate that a manifest's
// hash blob is whole hashes.
const hashSize = 32

// Envelope frames every wire message with its sender.
type Envelope struct {
	From model.NodeID
	Msg  any
}

// Hello announces a (re)joining node and its listen address (the livenet
// join handshake).
type Hello struct {
	ID   model.NodeID
	Addr string
}

// Book shares the sender's address book. Dead carries the sender's
// membership tombstones (node → last incarnation), so a merge cannot
// resurrect a peer the network already confirmed dead: the receiver
// drops tombstoned entries instead of re-adding them.
type Book struct {
	Book map[model.NodeID]string
	Dead map[model.NodeID]uint64
}

// LeaderLoad reports measured per-category load for one adaptation
// epoch. Members send it to their cluster leader (Aggregated false);
// leaders exchange cluster-wide sums with each other (Aggregated true).
// Hits are per-category request counts; Units is the per-category unit
// mass u_k·p(D_s(k))/p(D(k)) backing them, so the chosen leader can
// rebuild the ICLB state from live measurements (§6.1.2).
type LeaderLoad struct {
	Epoch      uint64
	Cluster    model.ClusterID
	Aggregated bool
	Hits       map[catalog.CategoryID]int64
	Units      map[catalog.CategoryID]float64
}

// ManifestReq asks a replica holder for a document's manifest. Xfer is
// a requester-chosen transfer id echoed in every reply, so concurrent
// fetches on one node demultiplex without shared state on the server.
// Origin is the fetching node the manifest (from whoever holds the
// document) must be sent to, and TTL bounds intra-cluster forwarding:
// a contacted member that does not hold the document relays the
// request to a few serving-cluster neighbors instead of answering, so
// holder discovery rides the overlay exactly like queries do.
type ManifestReq struct {
	Doc    catalog.DocID
	Xfer   uint64
	Origin model.NodeID
	TTL    int64
}

// Manifest answers a ManifestReq with the document's chunk table (size,
// chunk size, concatenated SHA-256 chunk hashes). Missing true means
// the addressed peer does not hold the document — the fetcher should
// fail over to another replica holder.
type Manifest struct {
	Doc       catalog.DocID
	Xfer      uint64
	Size      int64
	ChunkSize int64
	Hashes    []byte
	Missing   bool
}

// ChunkReq requests chunks [First, First+Count) of a document. It IS
// the credit grant of the sliding-window flow control: a server never
// sends a chunk that was not explicitly granted, so the receiver's
// outstanding window — not the sender's appetite — bounds bulk data in
// flight on the stream.
type ChunkReq struct {
	Doc   catalog.DocID
	Xfer  uint64
	First int64
	Count int64
}

// Chunk carries one verified transfer unit. Missing true means the
// server could not produce the granted chunk (it no longer holds the
// document); Data is the chunk bytes otherwise.
//
// A Chunk that Reader decodes from a large frame owns no copy: Data
// aliases the pooled buffer the frame was read into. The receiver calls
// Release once when done with Data; an unreleased chunk is just garbage.
type Chunk struct {
	Doc     catalog.DocID
	Xfer    uint64
	Index   int64
	Data    []byte
	Missing bool

	buf *[]byte // pooled frame buffer Data aliases; nil when Data is owned
}

// Release returns the frame buffer behind Data to the pool. Data must
// not be touched afterwards. A no-op for chunks that own their bytes.
func (c Chunk) Release() {
	if c.buf != nil {
		bulkPool.Put(c.buf)
	}
}

// ChunkSource produces chunk bytes at frame-write time
// (*content.Store implements it).
type ChunkSource interface {
	// AppendChunk appends chunk idx of doc to dst, or reports false if
	// the source no longer holds it.
	AppendChunk(dst []byte, doc catalog.DocID, idx int) ([]byte, bool)
}

// ChunkRef is the send-side form of a Chunk: a descriptor whose bytes
// are materialized only when the frame is written, straight into the
// frame buffer — by WriteEnvelope only, to exactly the bytes of the
// Chunk it stands for; decoding never produces one. Len is the length
// promised when it was queued; a source that can no longer supply Len
// bytes (document dropped or replaced since) makes the frame a Missing
// chunk.
type ChunkRef struct {
	Doc   catalog.DocID
	Xfer  uint64
	Index int64
	Len   int
	Src   ChunkSource
}

// fill appends the referenced chunk's bytes to b; on failure b comes
// back unextended.
func (r ChunkRef) fill(b []byte) ([]byte, bool) {
	start := len(b)
	b, ok := r.Src.AppendChunk(b, r.Doc, int(r.Index))
	if !ok || len(b)-start != r.Len {
		return b[:start], false
	}
	return b, true
}

// appendFrame appends the chunk frame payload the descriptor stands for,
// its data generated in place. It lives outside AppendEnvelope so that
// function's buffer never flows into an interface call (which would
// force every caller's scratch onto the heap).
func (r ChunkRef) appendFrame(b []byte, from model.NodeID) []byte {
	b = appendChunkHeader(b, from, r.Doc, r.Xfer, r.Index)
	mark := len(b)
	b = appendBool(b, false)
	b = appendUint(b, uint64(r.Len))
	b, ok := r.fill(b)
	if !ok {
		b = appendBool(b[:mark], true)
		b = appendUint(b, 0)
	}
	return b
}

func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendInt(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendFloat writes a float64 as 8 fixed big-endian bytes (varints buy
// nothing for float bit patterns).
func appendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// appendBytes writes a length-prefixed byte blob.
func appendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// appendChunkHeader writes a chunk frame up to its missing flag.
func appendChunkHeader(b []byte, from model.NodeID, doc catalog.DocID, xfer uint64, index int64) []byte {
	b = append(b, tagChunk)
	b = appendInt(b, int64(from))
	b = appendInt(b, int64(doc))
	b = appendUint(b, xfer)
	return appendInt(b, index)
}

// appendPiggyback writes a probe's two piggyback lists, the membership
// rumors and the DCRT rows: count (id addr state inc)*
// count (category cluster moveCounter)*.
func appendPiggyback(b []byte, us []membership.Update, mvs []membership.Move) []byte {
	b = appendUint(b, uint64(len(us)))
	for _, u := range us {
		b = appendInt(b, int64(u.ID))
		b = appendString(b, u.Addr)
		b = append(b, byte(u.State))
		b = appendUint(b, u.Inc)
	}
	b = appendUint(b, uint64(len(mvs)))
	for _, mv := range mvs {
		b = appendInt(b, int64(mv.Category))
		b = appendInt(b, int64(mv.Entry.Cluster))
		b = appendUint(b, mv.Entry.MoveCounter)
	}
	return b
}

// appendCatInts writes a category→int64 map sorted by category, so the
// encoding is deterministic.
func appendCatInts(b []byte, m map[catalog.CategoryID]int64) []byte {
	b = appendUint(b, uint64(len(m)))
	cats := make([]catalog.CategoryID, 0, len(m))
	for c := range m {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, c := range cats {
		b = appendInt(b, int64(c))
		b = appendInt(b, m[c])
	}
	return b
}

// appendCatFloats writes a category→float64 map sorted by category.
func appendCatFloats(b []byte, m map[catalog.CategoryID]float64) []byte {
	b = appendUint(b, uint64(len(m)))
	cats := make([]catalog.CategoryID, 0, len(m))
	for c := range m {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, c := range cats {
		b = appendInt(b, int64(c))
		b = appendFloat(b, m[c])
	}
	return b
}

// AppendEnvelope appends env's payload — tag, sender, body, no length
// prefix — to b and returns the extended slice. Unknown message types
// are an error: the codec is explicit by design; there is no reflective
// fallback.
func AppendEnvelope(b []byte, env Envelope) ([]byte, error) {
	switch m := env.Msg.(type) {
	case protocol.QueryMsg:
		// query := ID want category origin hops entry
		b = append(b, tagQuery)
		b = appendInt(b, int64(env.From))
		b = appendUint(b, m.ID)
		b = appendInt(b, int64(m.Category))
		b = appendInt(b, int64(m.Want))
		b = appendInt(b, int64(m.Origin))
		b = appendInt(b, int64(m.Hops))
		b = appendBool(b, m.Entry)
	case protocol.ResultMsg:
		// result := ID hops count doc*   (the answering node is the sender)
		b = append(b, tagResult)
		b = appendInt(b, int64(env.From))
		b = appendUint(b, m.ID)
		b = appendInt(b, int64(m.Hops))
		b = appendUint(b, uint64(len(m.Docs)))
		for _, d := range m.Docs {
			b = appendInt(b, int64(d))
		}
	case protocol.PublishMsg:
		// publish := doc category   (the publisher is the sender)
		b = append(b, tagPublish)
		b = appendInt(b, int64(env.From))
		b = appendInt(b, int64(m.Doc))
		b = appendInt(b, int64(m.Category))
	case protocol.PublishAckMsg:
		// publish-ack := doc category cluster moveCounter count member*
		b = append(b, tagPublishAck)
		b = appendInt(b, int64(env.From))
		b = appendInt(b, int64(m.Doc))
		b = appendInt(b, int64(m.Category))
		b = appendInt(b, int64(m.Entry.Cluster))
		b = appendUint(b, m.Entry.MoveCounter)
		b = appendUint(b, uint64(len(m.Members)))
		for _, nb := range m.Members {
			b = appendInt(b, int64(nb))
		}
	case Hello:
		// hello := id addr
		b = append(b, tagHello)
		b = appendInt(b, int64(env.From))
		b = appendInt(b, int64(m.ID))
		b = appendString(b, m.Addr)
	case Book:
		// book := count (id addr)* deadCount (id inc)*   — both sections
		// sorted by id so encoding is deterministic (map iteration order
		// is not).
		b = append(b, tagBook)
		b = appendInt(b, int64(env.From))
		b = appendUint(b, uint64(len(m.Book)))
		ids := make([]model.NodeID, 0, len(m.Book))
		for id := range m.Book {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			b = appendInt(b, int64(id))
			b = appendString(b, m.Book[id])
		}
		b = appendUint(b, uint64(len(m.Dead)))
		dead := make([]model.NodeID, 0, len(m.Dead))
		for id := range m.Dead {
			dead = append(dead, id)
		}
		sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
		for _, id := range dead {
			b = appendInt(b, int64(id))
			b = appendUint(b, m.Dead[id])
		}
	case membership.Ping:
		// ping := seq addr piggyback
		b = append(b, tagPing)
		b = appendInt(b, int64(env.From))
		b = appendUint(b, m.Seq)
		b = appendString(b, m.Addr)
		b = appendPiggyback(b, m.Updates, m.Moves)
	case membership.Ack:
		// ack := seq target piggyback
		b = append(b, tagAck)
		b = appendInt(b, int64(env.From))
		b = appendUint(b, m.Seq)
		b = appendInt(b, int64(m.Target))
		b = appendPiggyback(b, m.Updates, m.Moves)
	case membership.PingReq:
		// ping-req := seq target addr piggyback
		b = append(b, tagPingReq)
		b = appendInt(b, int64(env.From))
		b = appendUint(b, m.Seq)
		b = appendInt(b, int64(m.Target))
		b = appendString(b, m.Addr)
		b = appendPiggyback(b, m.Updates, m.Moves)
	case membership.Leave:
		// leave := id inc
		b = append(b, tagLeave)
		b = appendInt(b, int64(env.From))
		b = appendInt(b, int64(m.ID))
		b = appendUint(b, m.Inc)
	case LeaderLoad:
		// leader-load := epoch cluster aggregated hits units
		b = append(b, tagLeaderLoad)
		b = appendInt(b, int64(env.From))
		b = appendUint(b, m.Epoch)
		b = appendInt(b, int64(m.Cluster))
		b = appendBool(b, m.Aggregated)
		b = appendCatInts(b, m.Hits)
		b = appendCatFloats(b, m.Units)
	case ManifestReq:
		// manifest-req := doc xfer origin ttl
		b = append(b, tagManifestReq)
		b = appendInt(b, int64(env.From))
		b = appendInt(b, int64(m.Doc))
		b = appendUint(b, m.Xfer)
		b = appendInt(b, int64(m.Origin))
		b = appendInt(b, m.TTL)
	case Manifest:
		// manifest := doc xfer missing size chunkSize hashes
		b = append(b, tagManifest)
		b = appendInt(b, int64(env.From))
		b = appendInt(b, int64(m.Doc))
		b = appendUint(b, m.Xfer)
		b = appendBool(b, m.Missing)
		b = appendInt(b, m.Size)
		b = appendInt(b, m.ChunkSize)
		b = appendBytes(b, m.Hashes)
	case ChunkReq:
		// chunk-req := doc xfer first count
		b = append(b, tagChunkReq)
		b = appendInt(b, int64(env.From))
		b = appendInt(b, int64(m.Doc))
		b = appendUint(b, m.Xfer)
		b = appendInt(b, m.First)
		b = appendInt(b, m.Count)
	case Chunk:
		// chunk := doc xfer index missing data
		b = appendChunkHeader(b, env.From, m.Doc, m.Xfer, m.Index)
		b = appendBool(b, m.Missing)
		b = appendBytes(b, m.Data)
	default:
		return b, fmt.Errorf("wire: unencodable message type %T", env.Msg)
	}
	return b, nil
}

// dec is a bounds-checked cursor over one frame's payload, its ids held
// to Bounds. Errors are sticky: after the first failure every read
// returns zero and the single error surfaces at the end.
type dec struct {
	b   []byte
	off int
	err error
	Bounds
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated or corrupt %s at offset %d", ErrMalformed, what, d.off)
	}
}

// id reads one node, cluster, category or document id and fails the
// frame unless it lies in [0, bound). It reads the varint itself, so a
// checked id costs one call, like any other field.
func (d *dec) id(what string, bound int) int32 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || !inRange(v, bound) {
		d.err = fmt.Errorf("%w: %s at offset %d is not an id in [0,%d)", ErrMalformed, what, d.off, bound)
		return 0
	}
	d.off += n
	return int32(v)
}

func (d *dec) uint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) int(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) bool(what string) bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail(what)
		return false
	}
	v := d.b[d.off]
	d.off++
	return v != 0
}

func (d *dec) str(what string) string {
	n := d.uint(what)
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(what)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// float reads 8 fixed big-endian bytes. NaN is rejected: no encoder
// produces it, and accepting it would make decode→encode→decode
// non-deterministic (NaN never compares equal to itself).
func (d *dec) float(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	if math.IsNaN(v) {
		d.fail(what)
		return 0
	}
	return v
}

// state reads a membership state byte, rejecting values outside the
// defined enum.
func (d *dec) state(what string) membership.State {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail(what)
		return 0
	}
	v := d.b[d.off]
	d.off++
	if v > byte(membership.Left) {
		d.fail(what)
		return 0
	}
	return membership.State(v)
}

// piggyback reads a probe's two piggyback lists.
func (d *dec) piggyback() (us []membership.Update, mvs []membership.Move) {
	if n := d.count("update count"); n > 0 {
		us = make([]membership.Update, n)
		for i := range us {
			us[i].ID = model.NodeID(d.id("update id", d.Nodes))
			us[i].Addr = d.str("update addr")
			us[i].State = d.state("update state")
			us[i].Inc = d.uint("update incarnation")
		}
	}
	if n := d.count("move count"); n > 0 {
		mvs = make([]membership.Move, n)
		for i := range mvs {
			mvs[i].Category = catalog.CategoryID(d.id("move category", d.Categories))
			mvs[i].Entry.Cluster = model.ClusterID(d.id("move cluster", d.Clusters))
			mvs[i].Entry.MoveCounter = d.uint("move counter")
		}
	}
	return us, mvs
}

// catInts reads a category→int64 map.
func (d *dec) catInts(what string) map[catalog.CategoryID]int64 {
	n := d.count(what)
	if d.err != nil {
		return nil
	}
	m := make(map[catalog.CategoryID]int64, n)
	for i := 0; i < n && d.err == nil; i++ {
		c := catalog.CategoryID(d.id("category", d.Categories))
		m[c] = d.int("hit count")
	}
	return m
}

// catFloats reads a category→float64 map.
func (d *dec) catFloats(what string) map[catalog.CategoryID]float64 {
	n := d.count(what)
	if d.err != nil {
		return nil
	}
	m := make(map[catalog.CategoryID]float64, n)
	for i := 0; i < n && d.err == nil; i++ {
		c := catalog.CategoryID(d.id("category", d.Categories))
		m[c] = d.float("unit mass")
	}
	return m
}

// bytes reads a length-prefixed byte blob. The payload buffer is
// reused across frames by Reader, so the blob is copied out — the one
// allocation the message must own.
func (d *dec) bytes(what string) []byte {
	n := d.count(what)
	if n == 0 {
		return nil
	}
	d.off += n
	return append([]byte(nil), d.b[d.off-n:d.off]...)
}

// count reads a list length and rejects values that cannot fit in the
// remaining bytes (every element is at least one byte), so a corrupt
// frame can never force a huge allocation.
func (d *dec) count(what string) int {
	n := d.uint(what)
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// DecodeEnvelope decodes one frame payload under Unbounded. It never
// panics on corrupt input: a malformed frame returns an ErrMalformed
// error and allocates at most the bounded intermediate slices validated
// by count. The result owns all its memory; b may be reused.
func DecodeEnvelope(b []byte) (Envelope, error) {
	return decodeEnvelope(b, nil, Unbounded)
}

// decodeEnvelope is DecodeEnvelope under the given Bounds, except that
// with a non-nil frame — the pooled buffer b is the front of — a decoded
// Chunk aliases it instead of copying and carries it for Release.
func decodeEnvelope(b []byte, frame *[]byte, bounds Bounds) (Envelope, error) {
	if len(b) == 0 {
		return Envelope{}, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	d := &dec{b: b, off: 1, Bounds: bounds}
	env := Envelope{From: model.NodeID(d.id("sender", d.Nodes))}
	switch b[0] {
	case tagQuery:
		var m protocol.QueryMsg
		m.ID = d.uint("query id")
		m.Category = catalog.CategoryID(d.id("category", d.Categories))
		m.Want = int(d.int("want"))
		m.Origin = model.NodeID(d.id("origin", d.Nodes))
		m.Hops = int(d.int("hops"))
		m.Entry = d.bool("entry flag")
		env.Msg = m
	case tagResult:
		var m protocol.ResultMsg
		m.ID = d.uint("result id")
		m.Hops = int(d.int("hops"))
		m.From = env.From
		if n := d.count("doc count"); n > 0 {
			m.Docs = make([]catalog.DocID, n)
			for i := range m.Docs {
				m.Docs[i] = catalog.DocID(d.id("doc id", d.Docs))
			}
		}
		env.Msg = m
	case tagPublish:
		var m protocol.PublishMsg
		m.Doc = catalog.DocID(d.id("doc id", d.Docs))
		m.Category = catalog.CategoryID(d.id("category", d.Categories))
		m.Publisher = env.From
		env.Msg = m
	case tagPublishAck:
		var m protocol.PublishAckMsg
		m.Doc = catalog.DocID(d.id("doc id", d.Docs))
		m.Category = catalog.CategoryID(d.id("category", d.Categories))
		m.Entry.Cluster = model.ClusterID(d.id("cluster", d.Clusters))
		m.Entry.MoveCounter = d.uint("move counter")
		if n := d.count("member count"); n > 0 {
			m.Members = make([]model.NodeID, n)
			for i := range m.Members {
				m.Members[i] = model.NodeID(d.id("member id", d.Nodes))
			}
		}
		env.Msg = m
	case tagHello:
		var m Hello
		m.ID = model.NodeID(d.id("hello id", d.Nodes))
		m.Addr = d.str("hello addr")
		env.Msg = m
	case tagBook:
		n := d.count("book size")
		m := Book{Book: make(map[model.NodeID]string, n)}
		for i := 0; i < n && d.err == nil; i++ {
			id := model.NodeID(d.id("book id", d.Nodes))
			m.Book[id] = d.str("book addr")
		}
		nd := d.count("tombstone count")
		if nd > 0 {
			m.Dead = make(map[model.NodeID]uint64, nd)
			for i := 0; i < nd && d.err == nil; i++ {
				id := model.NodeID(d.id("tombstone id", d.Nodes))
				m.Dead[id] = d.uint("tombstone incarnation")
			}
		}
		env.Msg = m
	case tagPing:
		var m membership.Ping
		m.Seq = d.uint("ping seq")
		m.Addr = d.str("ping addr")
		m.Updates, m.Moves = d.piggyback()
		env.Msg = m
	case tagAck:
		var m membership.Ack
		m.Seq = d.uint("ack seq")
		m.Target = model.NodeID(d.id("ack target", d.Nodes))
		m.Updates, m.Moves = d.piggyback()
		env.Msg = m
	case tagPingReq:
		var m membership.PingReq
		m.Seq = d.uint("ping-req seq")
		m.Target = model.NodeID(d.id("ping-req target", d.Nodes))
		m.Addr = d.str("ping-req addr")
		m.Updates, m.Moves = d.piggyback()
		env.Msg = m
	case tagLeave:
		var m membership.Leave
		m.ID = model.NodeID(d.id("leave id", d.Nodes))
		m.Inc = d.uint("leave incarnation")
		env.Msg = m
	case tagLeaderLoad:
		var m LeaderLoad
		m.Epoch = d.uint("load epoch")
		m.Cluster = model.ClusterID(d.id("load cluster", d.Clusters))
		m.Aggregated = d.bool("aggregated flag")
		m.Hits = d.catInts("hit map size")
		m.Units = d.catFloats("unit map size")
		env.Msg = m
	case tagManifestReq:
		var m ManifestReq
		m.Doc = catalog.DocID(d.id("manifest-req doc", d.Docs))
		m.Xfer = d.uint("manifest-req xfer")
		m.Origin = model.NodeID(d.id("manifest-req origin", d.Nodes))
		m.TTL = d.int("manifest-req ttl")
		if d.err == nil && m.TTL < 0 {
			d.fail("manifest-req ttl")
		}
		env.Msg = m
	case tagManifest:
		var m Manifest
		m.Doc = catalog.DocID(d.id("manifest doc", d.Docs))
		m.Xfer = d.uint("manifest xfer")
		m.Missing = d.bool("manifest missing flag")
		m.Size = d.int("manifest size")
		m.ChunkSize = d.int("manifest chunk size")
		m.Hashes = d.bytes("manifest hashes")
		// A hash blob that is not whole sha256 hashes, or a negative
		// geometry, can only come from corruption or a hostile peer.
		if d.err == nil && (m.Size < 0 || m.ChunkSize < 0 || len(m.Hashes)%hashSize != 0) {
			d.fail("manifest geometry")
		}
		env.Msg = m
	case tagChunkReq:
		var m ChunkReq
		m.Doc = catalog.DocID(d.id("chunk-req doc", d.Docs))
		m.Xfer = d.uint("chunk-req xfer")
		m.First = d.int("chunk-req first")
		m.Count = d.int("chunk-req count")
		if d.err == nil && (m.First < 0 || m.Count < 0) {
			d.fail("chunk-req window")
		}
		env.Msg = m
	case tagChunk:
		var m Chunk
		m.Doc = catalog.DocID(d.id("chunk doc", d.Docs))
		m.Xfer = d.uint("chunk xfer")
		m.Index = d.int("chunk index")
		m.Missing = d.bool("chunk missing flag")
		if frame == nil {
			m.Data = d.bytes("chunk data")
		} else if n := d.count("chunk data"); n > 0 {
			// Sliced from *frame, not from b: b then never flows into the
			// result, so DecodeEnvelope callers' stack buffers stay there.
			m.Data, m.buf = (*frame)[d.off:d.off+n:d.off+n], frame
			d.off += n
		}
		if d.err == nil && m.Index < 0 {
			d.fail("chunk index sign")
		}
		env.Msg = m
	default:
		return Envelope{}, fmt.Errorf("%w: unknown message tag %d", ErrMalformed, b[0])
	}
	if d.err != nil {
		return Envelope{}, d.err
	}
	if d.off != len(b) {
		return Envelope{}, fmt.Errorf("%w: %d trailing bytes after message", ErrMalformed, len(b)-d.off)
	}
	return env, nil
}
