package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Stream open. Every stream starts with one handshake, and this file is
// the only place that knows its bytes: the dialing side writes the
// 5-byte preamble ("P2PW" + Version) and waits for a one-byte ack
// carrying the same Version (OpenStream); the accepting side reads
// exactly that preamble, acks it, and decodes frames from then on
// (AcceptStream). Anything else — other opening bytes, another version,
// a wrong or missing ack — is an error on which both sides close: there
// is no second codec to settle on, so processes built with different
// Versions refuse each other's streams and an upgrade restarts the
// deployment, exactly as a Shape change does (DESIGN.md §10).

// preamble opens every stream.
var preamble = [5]byte{'P', '2', 'P', 'W', Version}

var (
	errBadOpening = errors.New("opening bytes are not this version's preamble")
	errBadAck     = errors.New("peer acked another version")
)

// OpenStream runs the dialing side of the handshake on a fresh
// connection, bounded by timeout. On any error the stream is unusable
// and the caller closes c.
func OpenStream(c net.Conn, timeout time.Duration) error {
	c.SetDeadline(time.Now().Add(timeout))
	defer c.SetDeadline(time.Time{})
	if _, err := c.Write(preamble[:]); err != nil {
		return fmt.Errorf("wire: open stream: %w", err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		return fmt.Errorf("wire: open stream: no ack: %w", err)
	}
	if ack[0] != Version {
		return fmt.Errorf("wire: open stream: %w: %d, want %d", errBadAck, ack[0], Version)
	}
	return nil
}

// AcceptStream runs the accepting side: it reads the stream's opening
// bytes from br, and if they are the exact preamble writes the ack to
// the connection and returns the frame reader, which decodes under
// bounds. On any error the caller closes the connection; a bare io.EOF
// means the peer closed before sending a byte, any other error that the
// opening bytes could not be read, were short, or were not this
// Version's preamble. The caller owns deadlines.
func AcceptStream(br *bufio.Reader, ack io.Writer, bounds Bounds) (*Reader, error) {
	var head [len(preamble)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, err
	}
	if head != preamble {
		return nil, fmt.Errorf("wire: accept stream: %w: %q", errBadOpening, head[:])
	}
	if _, err := ack.Write([]byte{Version}); err != nil {
		return nil, fmt.Errorf("wire: accept stream: ack: %w", err)
	}
	return NewReader(br, bounds), nil
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
	br     *bufio.Reader
	buf    []byte
	bounds Bounds
}

// NewReader wraps a buffered reader positioned just past the preamble,
// decoding under bounds.
func NewReader(br *bufio.Reader, bounds Bounds) *Reader { return &Reader{br: br, bounds: bounds} }

// Next reads and decodes one envelope. Errors are terminal (a broken
// length prefix leaves no way to resynchronize); a malformed frame's
// error wraps ErrMalformed.
func (r *Reader) Next() (Envelope, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Envelope{}, err
	}
	if n == 0 || n > MaxFrameBytes {
		return Envelope{}, fmt.Errorf("%w: frame length %d out of range", ErrMalformed, n)
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
	return decodeEnvelope(b, nil, r.bounds)
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
		env, err = decodeEnvelope(b, bp, r.bounds)
	}
	if c, ok := env.Msg.(Chunk); !ok || c.buf == nil {
		bulkPool.Put(bp)
	}
	return env, err
}
