package livenet

import (
	"bufio"
	"errors"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// linkBudget bounds the live heap one open, idle stream costs its
// process, both ends counted: the 4.7 KB measured on a process's first
// run (4.0 KB on later ones, which reuse the goroutine descriptors the
// runtime keeps from exited writers), plus a quarter. What an idle link
// holds: the reader's 1 KB buffer; a 512-byte fabric ring each way (the
// server→client one only ever carried the handshake ack); the peerConn,
// which holds the stream, its deadline and the connect state; and the
// conn, ring, deadline and reader structs. No writer goroutine, no
// queue storage, no write buffer and no jitter source.
const linkBudget = 6 << 10

// TestLinkMemoryPerIdleStream opens 256 streams from one transport over
// memnet — one per peer, all read by one sink the way a node reads them —
// sends one protocol frame on each, and once every frame is read
// requires what each idle stream costs: no goroutine on the dialing side
// (every writer has exited), one on the accepting side (its reader), and
// less than linkBudget of live heap, both ends counted.
func TestLinkMemoryPerIdleStream(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the live heap")
	}
	const streams = 256
	nw := memnet.New()
	ln, err := nw.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	var read atomic.Int64
	serveSink(t, ln, nil, func(envelope) { read.Add(1) })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g0 := runtime.NumGoroutine()
	stats := new(counters)
	tr := newTransport(1, 1, stats)
	tr.writerIdle = -1 // as in the benchmark: no stream closes
	tr.setDial(nw.Dial)
	defer tr.close()
	for i := 0; i < streams; i++ {
		tr.send(model.NodeID(2+i), ln.Addr().String(),
			envelope{From: 1, Msg: protocol.QueryMsg{ID: uint64(i), Category: 3, Want: 1, Origin: 1}}, laneQueue)
	}
	waitFor(t, 10*time.Second, "every frame sent and read, every writer gone", func() bool {
		return read.Load() == streams && stats.TransportSends.Load() == streams && tr.writers() == 0
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if open := openStreams(tr); open != streams {
		t.Fatalf("%d of %d streams open", open, streams)
	}
	// The sink's readers are the accepting side's goroutines; a few of
	// slack either way for goroutines of earlier tests still exiting and
	// the runtime's own.
	if g := runtime.NumGoroutine() - g0; g < streams-4 || g > streams+4 {
		t.Fatalf("%d idle streams hold %d goroutines, want one each: its reader", streams, g)
	}
	perStream := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / streams
	t.Logf("live heap per idle stream: %.1f KB (budget %.1f KB)", float64(perStream)/1024, float64(linkBudget)/1024)
	if perStream > linkBudget {
		t.Fatalf("an idle stream holds %.1f KB of live heap, budget %.1f KB", float64(perStream)/1024, float64(linkBudget)/1024)
	}
}

// TestLinkMemoryBulkQueueOnlyWithContent: only a node with a content
// store sends chunks, so only such a node has a bulk lane; a bulk
// envelope on a node without one is dropped and counted. And a bulk
// queue costs nothing until chunks wait in it: after a round of queries
// no link, on either kind of node, holds bulk queue storage.
func TestLinkMemoryBulkQueueOnlyWithContent(t *testing.T) {
	for _, cc := range []*ContentConfig{nil, {}} {
		c := launchOverMemnet(t, contentShape(23), nil, memnet.New(), Options{CacheBytes: -1, Content: cc})
		if queryAllCategories(t, c, c.Nodes[0]) == 0 {
			t.Fatal("no query answered")
		}
		peers, withBulk := 0, 0
		for _, n := range c.Nodes {
			if n.tr.bulkLane != (cc != nil) {
				t.Fatalf("content store %v: node %d has bulk lane %v", cc != nil, n.id, n.tr.bulkLane)
			}
			n.tr.mu.Lock()
			for _, p := range n.tr.peers {
				peers++
				if cap(p.bulk) > 0 {
					withBulk++
				}
			}
			n.tr.mu.Unlock()
		}
		if peers == 0 {
			t.Fatal("no links opened")
		}
		if withBulk != 0 {
			t.Errorf("content store %v: %d of %d peer links hold bulk queue storage after queries alone", cc != nil, withBulk, peers)
		}
	}

	for _, lane := range []bool{false, true} {
		nw := memnet.New()
		ln, err := nw.Listen("mem:0")
		if err != nil {
			t.Fatal(err)
		}
		var read atomic.Int64
		serveSink(t, ln, nil, func(envelope) { read.Add(1) })
		stats := new(counters)
		tr := newTransport(1, 1, stats)
		tr.bulkLane = lane
		tr.setDial(nw.Dial)
		t.Cleanup(tr.close)
		tr.send(2, ln.Addr().String(), envelope{From: 1, Msg: protocol.QueryMsg{ID: 1, Category: 3, Want: 1, Origin: 1}}, laneBulk)
		if lane {
			waitFor(t, 5*time.Second, "the bulk envelope read", func() bool { return read.Load() == 1 })
		} else if got := stats.TransportDropsBulkFull.Load(); got != 1 || tr.queueDepth() != 0 {
			t.Errorf("no bulk lane: %d bulk drops and %d queued, want the envelope dropped", got, tr.queueDepth())
		}
	}
}

// cutConn is a stream that dies mid-batch: it passes budget bytes through
// (the handshake's among them), then closes and fails every write.
type cutConn struct {
	net.Conn
	budget int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) <= c.budget {
		c.budget -= len(p)
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:c.budget])
	c.budget = 0
	c.Conn.Close()
	return n, errors.New("stream cut")
}

// TestWriteBufPoolFailedFlushLeavesNothing: a batch whose stream is cut
// mid-flush hands its write buffer back with nothing buffered, and the
// next batch — to another peer, through the buffer it handed back —
// arrives as exactly its own frames.
func TestWriteBufPoolFailedFlushLeavesNothing(t *testing.T) {
	nw := memnet.New()
	lnA, err := nw.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := nw.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	serveSink(t, lnA, nil, func(envelope) {})
	gotB := make(chan envelope, 64)
	serveSink(t, lnB, nil, func(env envelope) { gotB <- env })

	stats := new(counters)
	tr := newTransport(1, 1, stats)
	defer tr.close()
	// Peer A takes its first stream of a round and dies two frames into
	// the batch: the redials fail, so the cut flush is the batch's last.
	var aUp atomic.Bool
	tr.setDial(func(addr string) (net.Conn, error) {
		if addr != lnA.Addr().String() {
			return nw.Dial(addr)
		}
		if !aUp.Swap(false) {
			return nil, errors.New("peer down")
		}
		c, err := nw.Dial(addr)
		return &cutConn{Conn: c, budget: 5 + 40}, err // preamble, then two frames and a bit
	})
	deliverTo := func(to model.NodeID, addr string, batch []envelope) {
		p := &peerConn{to: to, addr: addr}
		tr.deliver(p, batch)
		p.drop()
	}
	batchFor := func(to model.NodeID, round int) []envelope {
		batch := make([]envelope, 20)
		for i := range batch {
			id := uint64(to)<<32 | uint64(round)<<16 | uint64(i)
			batch[i] = envelope{From: 1, Msg: protocol.QueryMsg{ID: id, Category: 3, Want: 1, Origin: 1}}
		}
		return batch
	}
	// The pool hands a buffer back to the goroutine that returned it, but
	// not always (a GC, the race detector dropping puts): several rounds.
	const rounds = 10
	for round := 0; round < rounds; round++ {
		aUp.Store(true)
		deliverTo(2, lnA.Addr().String(), batchFor(2, round))
		bw := writeBufs.Get().(*bufio.Writer)
		if bw.Buffered() != 0 || bw.Available() != writeBufBytes {
			t.Fatalf("round %d: a buffer came back from a cut stream holding %d bytes (%d free)",
				round, bw.Buffered(), bw.Available())
		}
		writeBufs.Put(bw)

		want := batchFor(3, round)
		deliverTo(3, lnB.Addr().String(), want)
		for i, w := range want {
			select {
			case got := <-gotB:
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("round %d: frame %d to the next peer is %+v, want %+v", round, i, got, w)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: the next peer got %d of its %d frames", round, i, len(want))
			}
		}
	}
	st := stats.snapshot()
	if st["transport_reconnects"] < rounds || st["transport_send_failures"] != rounds*20 || st["transport_sends"] != rounds*20 {
		t.Fatalf("want every cut batch lost and every other one sent: %v", st)
	}
}

// TestWriteBufPoolConcurrentReconnects runs many writers through the
// pool at once while their peers keep cutting the streams (every one
// closes after a few frames, so writers reconnect all the time), and
// requires every frame a peer reads to be its own. Run it with -race.
func TestWriteBufPoolConcurrentReconnects(t *testing.T) {
	const peers, producers, frames, cutEvery = 16, 4, 300, 7
	nw := memnet.New()
	addrs := make([]string, peers)
	var read, foreign atomic.Int64
	for k := range addrs {
		ln, err := nw.Listen("mem:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[k] = ln.Addr().String()
		mine := uint64(2 + k)
		serveSink(t, ln, func(_ int, conn net.Conn) bool {
			r, err := wire.AcceptStream(bufio.NewReaderSize(conn, readBufBytes), conn, wire.Unbounded)
			for n := 0; err == nil && n < cutEvery; n++ {
				var env envelope
				if env, err = r.Next(); err == nil {
					read.Add(1)
					if q, ok := env.Msg.(protocol.QueryMsg); !ok || q.ID>>32 != mine {
						foreign.Add(1)
					}
				}
			}
			return true // the sink closes the stream
		}, nil)
	}

	stats := new(counters)
	tr := newTransport(1, 1, stats)
	tr.setDial(nw.Dial)
	defer tr.close()
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				for k, addr := range addrs {
					to := model.NodeID(2 + k)
					id := uint64(to)<<32 | uint64(g*frames+i)
					tr.send(to, addr, envelope{From: 1, Msg: protocol.QueryMsg{ID: id, Category: 3, Want: 1, Origin: 1}}, laneQueue)
				}
			}
		}(g)
	}
	wg.Wait()
	const total = producers * frames * peers
	waitFor(t, 10*time.Second, "every envelope sent, failed or dropped", func() bool {
		st := stats.snapshot()
		return st["transport_sends"]+st["transport_send_failures"]+st["transport_drops_queue_full"] == total
	})
	st := stats.snapshot()
	t.Logf("%d envelopes: %d read, %v", total, read.Load(), st)
	if foreign.Load() != 0 {
		t.Fatalf("%d frames reached a peer they were not sent to", foreign.Load())
	}
	if read.Load() == 0 || st["transport_reconnects"] == 0 {
		t.Fatalf("want frames read and streams re-opened: %d read, %v", read.Load(), st)
	}
}
