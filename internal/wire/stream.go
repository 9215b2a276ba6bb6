package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Stream negotiation. A v2 sender opens every stream with a 5-byte
// preamble ("P2PW" + version); a v2 receiver peeks at the first bytes of
// an inbound stream, and on a preamble match consumes it, writes the
// accepted version back as a one-byte ack, and decodes v2 frames from
// then on. Absent the preamble the receiver falls straight through to
// gob, so old senders keep working unchanged. An old RECEIVER never
// acks: it either closes the stream on the preamble — which the sender
// reads as proof, redialing and speaking gob to that peer from then
// on — or blocks mid-message (the genuine pre-v2 decoder treats 'P' as
// a gob length prefix and waits), which surfaces as an ack timeout.
// The timeout is ambiguous with a transiently stalled v2 peer, so it
// downgrades only the one stream and the sender re-probes v2 on its
// next connect, going sticky after a streak of timeouts. Every
// downgrade is counted as codec_fallback.

// preamble opens every v2 stream.
var preamble = [5]byte{'P', '2', 'P', 'W', Version}

// PreambleLen is the number of bytes IsPreamble needs to inspect.
const PreambleLen = len(preamble)

// Preamble returns the stream-open header a v2 sender writes.
func Preamble() []byte {
	p := preamble
	return p[:]
}

// IsPreamble reports whether b (at least PreambleLen bytes) opens a
// v2 stream this package can decode.
func IsPreamble(b []byte) bool {
	if len(b) < PreambleLen {
		return false
	}
	for i := range preamble {
		if b[i] != preamble[i] {
			return false
		}
	}
	return true
}

const (
	// smallFrameBytes caps the scratch the small-frame paths keep between
	// frames: encode scratch grown past it is dropped, not pooled, and
	// Reader's reused payload buffer serves only frames below it — so no
	// link pins a chunk-sized buffer because it once carried a chunk.
	smallFrameBytes = 4 << 10
	// bulkBufBytes sizes the pooled buffers large frames are staged in:
	// one default 64 KB chunk plus its headers.
	bulkBufBytes = 64<<10 + 64
	// hdrMax is the room reserved ahead of a payload for its length prefix.
	hdrMax = binary.MaxVarintLen64
)

// encPool recycles small encode buffers across all writers; a
// steady-state send allocates nothing.
var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// bulkPool recycles chunk-sized buffers: outgoing chunk frames are
// staged in them, large incoming frames read into them (a decoded Chunk
// keeps its buffer until released).
var bulkPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, bulkBufBytes)
		return &b
	},
}

// WriteEnvelope frames env (uvarint length prefix + payload) onto w.
// The whole frame — header included — is staged in a pooled scratch
// buffer, so it reaches the buffered writer in ONE Write call and no
// allocations: a stack-local header array passed to w.Write would escape
// (the analyzer cannot see that bufio does not retain it) and cost one
// heap allocation per frame, so the length prefix is instead encoded
// right-aligned into space reserved at the front of the scratch buffer.
// A chunk descriptor's bytes are generated inside a chunk-sized pooled
// frame, which — larger than w's buffer — reaches the connection
// without another copy.
func WriteEnvelope(w *bufio.Writer, env Envelope) error {
	if ref, ok := env.Msg.(ChunkRef); ok {
		bp := bulkPool.Get().(*[]byte)
		err := writeFrame(w, ref.appendFrame((*bp)[:hdrMax], env.From))
		bulkPool.Put(bp)
		return err
	}
	bp := encPool.Get().(*[]byte)
	b, err := AppendEnvelope((*bp)[:hdrMax], env)
	if cap(b) <= smallFrameBytes {
		*bp = b[:0] // keep modest growth for the next borrower
	}
	if err == nil {
		err = writeFrame(w, b)
	}
	encPool.Put(bp)
	return err
}

// writeFrame writes the frame whose payload follows hdrMax reserved
// bytes in b, right-aligning the uvarint length against the payload.
func writeFrame(w *bufio.Writer, b []byte) error {
	payload := len(b) - hdrMax
	if payload > MaxFrameBytes {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", payload, MaxFrameBytes)
	}
	n := binary.PutUvarint(b[:hdrMax], uint64(payload))
	start := hdrMax - n
	copy(b[start:hdrMax], b[:n])
	_, err := w.Write(b[start:])
	return err
}

// Reader decodes a stream of length-prefixed frames. Small frames reuse
// one payload buffer across messages — the accept path's only
// per-message allocations are the slices the decoded message itself
// must own. Frames of smallFrameBytes and up go through a pooled buffer
// that a decoded Chunk keeps (see Chunk.Release).
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader wraps a buffered reader positioned just past the preamble.
func NewReader(br *bufio.Reader) *Reader { return &Reader{br: br} }

// Next reads and decodes one envelope. Errors are terminal for the
// stream (a broken length prefix leaves no way to resynchronize).
func (r *Reader) Next() (Envelope, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Envelope{}, err
	}
	if n == 0 || n > MaxFrameBytes {
		return Envelope{}, fmt.Errorf("wire: frame length %d out of range", n)
	}
	var b []byte
	switch {
	case n < smallFrameBytes:
		if uint64(cap(r.buf)) < n {
			r.buf = make([]byte, n)
		}
		b = r.buf[:n]
	case n <= bulkBufBytes:
		return r.nextPooled(int(n))
	default:
		// Beyond the pooled size (a huge address book, a chunk size above
		// the default): a one-off buffer, decoded by copy like a small frame.
		b = make([]byte, n)
	}
	if _, err := io.ReadFull(r.br, b); err != nil {
		return Envelope{}, err
	}
	return DecodeEnvelope(b)
}

// nextPooled reads an n-byte frame into a pooled buffer. The buffer goes
// back to the pool here unless the frame decodes to a Chunk, which
// takes it over.
func (r *Reader) nextPooled(n int) (Envelope, error) {
	bp := bulkPool.Get().(*[]byte)
	b := (*bp)[:n]
	_, err := io.ReadFull(r.br, b)
	var env Envelope
	if err == nil {
		env, err = decodeEnvelope(b, bp)
	}
	if c, ok := env.Msg.(Chunk); !ok || c.buf == nil {
		bulkPool.Put(bp)
	}
	return env, err
}
