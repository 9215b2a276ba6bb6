package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/protocol"
)

// patternSource is a ChunkSource serving size-byte chunks of a fixed
// pattern for every doc but gone, standing in for a content store.
type patternSource struct {
	size int
	gone catalog.DocID
}

func (p patternSource) AppendChunk(dst []byte, doc catalog.DocID, idx int) ([]byte, bool) {
	if doc == p.gone {
		return dst, false
	}
	for i := 0; i < p.size; i++ {
		dst = append(dst, byte(int(doc)+idx+i))
	}
	return dst, true
}

// frameOf returns the bytes WriteEnvelope puts on the stream for env.
func frameOf(t testing.TB, env Envelope) []byte {
	t.Helper()
	var raw bytes.Buffer
	w := bufio.NewWriter(&raw)
	if err := WriteEnvelope(w, env); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// TestChunkRefEncodesAsChunk pins the chunk frame: a descriptor
// materialized at write time puts exactly the frame of the Chunk it
// stands for on the stream, and a source that lost the document (or
// changed its length) the ordinary Missing chunk.
func TestChunkRefEncodesAsChunk(t *testing.T) {
	for _, size := range []int{0, 1, 127, 128, 16383, 16384, 64 << 10, 100 << 10} {
		src := patternSource{size: size, gone: 99}
		ref := ChunkRef{Doc: 7, Xfer: 1 << 40, Index: 3, Len: size, Src: src}
		data, _ := src.AppendChunk(nil, 7, 3)
		plain := Chunk{Doc: 7, Xfer: 1 << 40, Index: 3, Data: data}
		if !bytes.Equal(frameOf(t, Envelope{From: 5, Msg: ref}), frameOf(t, Envelope{From: 5, Msg: plain})) {
			t.Fatalf("size %d: descriptor frame differs from the chunk frame", size)
		}
	}
	missing := frameOf(t, Envelope{From: 5, Msg: Chunk{Doc: 99, Xfer: 2, Index: 4, Missing: true}})
	for name, ref := range map[string]ChunkRef{
		"dropped": {Doc: 99, Xfer: 2, Index: 4, Len: 10, Src: patternSource{size: 10, gone: 99}},
		"resized": {Doc: 99, Xfer: 2, Index: 4, Len: 10, Src: patternSource{size: 12}},
	} {
		if !bytes.Equal(frameOf(t, Envelope{From: 5, Msg: ref}), missing) {
			t.Fatalf("%s document: frame is not the Missing chunk", name)
		}
	}
}

// chunkStream returns the raw stream of n descriptor chunk frames.
func chunkStream(t testing.TB, n, size int) []byte {
	t.Helper()
	var raw bytes.Buffer
	w := bufio.NewWriterSize(&raw, 64<<10)
	for i := 0; i < n; i++ {
		ref := ChunkRef{Doc: 3, Xfer: 9, Index: int64(i), Len: size, Src: patternSource{size: size}}
		if err := WriteEnvelope(w, Envelope{From: 2, Msg: ref}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// TestLargeFramesAliasPooledBuffers: chunks read off a stream alias
// their own frame buffer, so several can be in flight at once with
// distinct, intact bytes; releasing them is what lets later frames
// reuse the memory; and a small chunk still owns a private copy.
func TestLargeFramesAliasPooledBuffers(t *testing.T) {
	const size = 64 << 10
	r := NewReader(bufio.NewReaderSize(bytes.NewReader(chunkStream(t, 6, size)), 64<<10), Unbounded)
	var held []Chunk
	for i := 0; i < 6; i++ {
		env, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		c := env.Msg.(Chunk)
		if c.buf == nil {
			t.Fatalf("chunk %d from a %d-byte frame owns a copy instead of aliasing the frame buffer", i, size)
		}
		held = append(held, c)
	}
	for i, c := range held {
		want, _ := patternSource{size: size}.AppendChunk(nil, 3, i)
		if c.Index != int64(i) || !bytes.Equal(c.Data, want) {
			t.Fatalf("chunk %d was overwritten while a later frame was read", i)
		}
		c.Release()
	}
	small := NewReader(bufio.NewReader(bytes.NewReader(chunkStream(t, 1, 100))), Unbounded)
	env, err := small.Next()
	if err != nil {
		t.Fatal(err)
	}
	if c := env.Msg.(Chunk); c.buf != nil || len(c.Data) != 100 {
		t.Fatalf("small chunk frame took the pooled path: %+v", c)
	}
}

// TestChunksLeaveNoLargeScratchBehind streams chunks and then queries
// over one connection and checks what each side keeps afterwards: the
// reader's reusable payload buffer and the encode pool's scratch both
// stay small-frame sized, where they used to grow to the largest frame
// the link ever carried and stay there.
func TestChunksLeaveNoLargeScratchBehind(t *testing.T) {
	const size = 64 << 10
	data, _ := patternSource{size: size}.AppendChunk(nil, 3, 0)
	var raw bytes.Buffer
	w := bufio.NewWriterSize(&raw, 64<<10)
	// Both chunk forms: the descriptor the transport queues and a plain
	// Chunk, which is staged in the small-frame pool and outgrows it.
	for i := 0; i < 4; i++ {
		var msg any = Chunk{Doc: 3, Xfer: 9, Index: int64(i), Data: data}
		if i%2 == 0 {
			msg = ChunkRef{Doc: 3, Xfer: 9, Index: int64(i), Len: size, Src: patternSource{size: size}}
		}
		if err := WriteEnvelope(w, Envelope{From: 2, Msg: msg}); err != nil {
			t.Fatal(err)
		}
		bp := encPool.Get().(*[]byte)
		if cap(*bp) > smallFrameBytes {
			t.Fatalf("encode pool kept %d bytes of scratch after a chunk frame", cap(*bp))
		}
		encPool.Put(bp)
	}
	query := Envelope{From: 2, Msg: protocol.QueryMsg{ID: 1, Category: 2, Want: 1, Origin: 2}}
	for i := 0; i < 8; i++ {
		if err := WriteEnvelope(w, query); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bufio.NewReaderSize(&raw, 64<<10), Unbounded)
	for i := 0; i < 12; i++ {
		env, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if c, ok := env.Msg.(Chunk); ok {
			c.Release()
		}
	}
	if cap(r.buf) > smallFrameBytes {
		t.Fatalf("reader retains a %d-byte payload buffer after the chunks", cap(r.buf))
	}
}

// TestChunkFrameAllocs extends the codec's allocation pins to the bulk
// path: writing a 64 KB chunk frame from a descriptor allocates
// nothing and bypasses the write buffer, and reading one costs the boxed
// message only — the payload
// lands in a pooled buffer the released chunk hands back.
func TestChunkFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const size = 64 << 10
	w := bufio.NewWriterSize(io.Discard, 64<<10)
	env := Envelope{From: 2, Msg: ChunkRef{Doc: 3, Xfer: 9, Index: 1, Len: size, Src: patternSource{size: size}}}
	if avg := testing.AllocsPerRun(200, func() {
		if err := WriteEnvelope(w, env); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Fatalf("WriteEnvelope(64 KB chunk descriptor) allocates %.1f per run, budget 0", avg)
	}
	// Nor is the frame copied into the writer's 64 KB buffer: it reaches
	// the connection in one Write. The writer is set up the way the live
	// transport borrows its write buffers — made without a destination,
	// then Reset onto the stream for one batch.
	var conn writeSizes
	bw := bufio.NewWriterSize(nil, 64<<10)
	bw.Reset(&conn)
	if err := WriteEnvelope(bw, env); err != nil {
		t.Fatal(err)
	}
	if bw.Buffered() != 0 || len(conn) != 1 || conn[0] <= size {
		t.Fatalf("a 64 KB chunk frame reached the connection as writes of %v bytes with %d left buffered, want one write of the whole frame",
			conn, bw.Buffered())
	}

	r := NewReader(bufio.NewReaderSize(&replayReader{b: chunkStream(t, 1, size)}, 64<<10), Unbounded)
	if avg := testing.AllocsPerRun(200, func() {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		got.Msg.(Chunk).Release()
	}); avg > 1 {
		t.Fatalf("Reader.Next(64 KB chunk) allocates %.1f per run, budget 1", avg)
	}
}

// writeSizes records the length of every Write it is handed.
type writeSizes []int

func (w *writeSizes) Write(p []byte) (int, error) {
	*w = append(*w, len(p))
	return len(p), nil
}

// BenchmarkChunkFrameRoundTrip moves 64 KB chunk frames through the
// codec the way a transfer does — descriptor materialized into the
// outgoing frame, large-frame read, release — without a network in
// between, so a profile shows the codec's own share of a fetch.
func BenchmarkChunkFrameRoundTrip(b *testing.B) {
	const size = 64 << 10
	var link bytes.Buffer
	w := bufio.NewWriterSize(&link, 64<<10)
	r := NewReader(bufio.NewReaderSize(&link, 64<<10), Unbounded)
	env := Envelope{From: 2, Msg: ChunkRef{Doc: 3, Xfer: 9, Index: 1, Len: size, Src: zeroSource(size)}}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteEnvelope(w, env); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		got, err := r.Next()
		if err != nil {
			b.Fatal(err)
		}
		got.Msg.(Chunk).Release()
	}
}

// zeroSource serves all-zero chunks of a fixed size at memclr speed, so
// the benchmark above times framing and copying, not generation.
type zeroSource int

func (z zeroSource) AppendChunk(dst []byte, _ catalog.DocID, _ int) ([]byte, bool) {
	return append(dst, make([]byte, z)...), true
}
