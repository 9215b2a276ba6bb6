package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/protocol"
)

// TestWriteEnvelopeAllocs pins the encode path at ZERO steady-state
// allocations: frames are staged in pooled scratch buffers and reach the
// writer in two Write calls (the package's headline design goal — keep
// it true).
func TestWriteEnvelopeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w := bufio.NewWriterSize(io.Discard, 1<<16)
	env := Envelope{From: 7, Msg: protocol.QueryMsg{
		ID: 99, Category: 3, Want: 8, Origin: 7, Hops: 2, Entry: true,
	}}
	avg := testing.AllocsPerRun(5000, func() {
		if err := WriteEnvelope(w, env); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("WriteEnvelope allocates %.1f per run, budget 0", avg)
	}
}

// TestReaderNextQueryAllocs pins the decode path for the hottest frame
// (QueryMsg, no owned slices): the boxed message is the only steady-
// state allocation once the reader's payload buffer has grown.
func TestReaderNextQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var frame bytes.Buffer
	bw := bufio.NewWriter(&frame)
	if err := WriteEnvelope(bw, Envelope{From: 7, Msg: protocol.QueryMsg{
		ID: 99, Category: 3, Want: 8, Origin: 7, Hops: 2, Entry: true,
	}}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	raw := frame.Bytes()

	stream := &replayReader{b: raw}
	br := bufio.NewReader(stream)
	r := NewReader(br, Unbounded)
	if _, err := r.Next(); err != nil { // grow the reusable payload buffer
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5000, func() {
		env, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := env.Msg.(protocol.QueryMsg); !ok {
			t.Fatalf("decoded %T", env.Msg)
		}
	})
	// One boxed QueryMsg; the dec struct stays on the stack.
	if avg > 2 {
		t.Fatalf("Reader.Next(query) allocates %.1f per run, budget 2", avg)
	}
}

// TestReaderNextResultAllocs pins the result frame: the boxed message
// plus the Docs slice the decoded message must own.
func TestReaderNextResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var frame bytes.Buffer
	bw := bufio.NewWriter(&frame)
	if err := WriteEnvelope(bw, Envelope{From: 7, Msg: protocol.ResultMsg{
		ID: 99, Docs: []catalog.DocID{1, 2, 3, 4}, Hops: 2, From: 7,
	}}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	raw := frame.Bytes()

	stream := &replayReader{b: raw}
	br := bufio.NewReader(stream)
	r := NewReader(br, Unbounded)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5000, func() {
		env, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		m, ok := env.Msg.(protocol.ResultMsg)
		if !ok || len(m.Docs) != 4 {
			t.Fatalf("decoded %T", env.Msg)
		}
	})
	if avg > 3 {
		t.Fatalf("Reader.Next(result) allocates %.1f per run, budget 3", avg)
	}
}

// replayReader replays one encoded frame forever — an infinite stream of
// identical frames with no per-read allocation.
type replayReader struct {
	b   []byte
	off int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.b) {
		r.off = 0
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

var _ io.Reader = (*replayReader)(nil)
