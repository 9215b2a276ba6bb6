package livenet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// stalledWriter is a transport to one memnet sink whose first dial
// blocks until release is closed, so a test can fill the queues of a
// writer that holds one envelope and cannot send it. got receives every
// envelope the sink reads, in order.
type stalledWriter struct {
	tr      *transport
	stats   *counters
	addr    string
	release chan struct{}
	got     chan envelope
}

func newStalledWriter(t *testing.T, bulkLane bool) *stalledWriter {
	t.Helper()
	nw := memnet.New()
	ln, err := nw.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stalledWriter{
		stats:   new(counters),
		addr:    ln.Addr().String(),
		release: make(chan struct{}),
		got:     make(chan envelope, 1024),
	}
	serveSink(t, ln, nil, func(env envelope) { s.got <- env })
	s.tr = newTransport(1, 1, s.stats)
	s.tr.bulkLane = bulkLane
	t.Cleanup(s.tr.close)
	dialing := make(chan struct{})
	var once sync.Once
	s.tr.setDial(func(addr string) (net.Conn, error) {
		once.Do(func() { close(dialing) })
		select {
		case <-s.release:
			return nw.Dial(addr)
		case <-s.tr.done: // a test that failed before releasing the dial
			return nil, errors.New("transport closed")
		}
	})
	// The first envelope spawns the writer, which takes it and stalls.
	s.tr.send(2, s.addr, queryEnv(0), laneQueue)
	<-dialing
	return s
}

func queryEnv(id uint64) envelope {
	return envelope{From: 1, Msg: protocol.QueryMsg{ID: id, Category: 3, Want: 1, Origin: 1}}
}

// recv returns the next n envelopes the sink read.
func (s *stalledWriter) recv(t *testing.T, n int) []envelope {
	t.Helper()
	out := make([]envelope, 0, n)
	for len(out) < n {
		select {
		case env := <-s.got:
			out = append(out, env)
		case <-time.After(10 * time.Second):
			t.Fatalf("the sink read %d of %d envelopes", len(out), n)
		}
	}
	return out
}

// TestWriterQueueCap: with the writer stalled on a dial, 300 more
// envelopes on one queue keep exactly its cap and count the rest as
// drops; once the dial completes the kept ones go out in order, at most
// maxBatchMsgs per flush.
func TestWriterQueueCap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bulk  bool
		limit int
		drops string
	}{
		{"protocol", false, sendQueueCap, "transport_drops_queue_full"},
		{"bulk", true, bulkQueueCap, "transport_drops_bulk_full"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStalledWriter(t, tc.bulk)
			const offered = 300
			for i := 1; i <= offered; i++ {
				if tc.bulk {
					s.tr.send(2, s.addr, queryEnv(uint64(i)), laneBulk)
				} else {
					s.tr.send(2, s.addr, queryEnv(uint64(i)), laneQueue)
				}
			}
			if got := s.stats.snapshot()[tc.drops]; got != offered-int64(tc.limit) {
				t.Fatalf("%s = %d, want %d", tc.drops, got, offered-tc.limit)
			}
			if got := s.tr.queueDepth(); got != tc.limit {
				t.Fatalf("%d envelopes queued, want %d", got, tc.limit)
			}
			close(s.release)
			for i, env := range s.recv(t, tc.limit+1) {
				if id := env.Msg.(protocol.QueryMsg).ID; id != uint64(i) {
					t.Fatalf("envelope %d read is id %d: queue order lost", i, id)
				}
			}
			// The writer counts a flush's sends and its batch size after
			// the write returns, so the sink can read the last envelope
			// before either shows: wait for the books to close.
			waitFor(t, 10*time.Second, "every kept envelope counted sent", func() bool {
				return s.stats.snapshot()["transport_sends"] == int64(tc.limit)+1 &&
					s.tr.batches.Sum() == float64(tc.limit+1)
			})
			perFlush := maxBatchMsgs
			if tc.bulk {
				perFlush = maxBulkPerBatch
			}
			if got := s.tr.batches.Max(); got != float64(perFlush) {
				t.Errorf("largest flush carried %v envelopes, want %d", got, perFlush)
			}
			if st := s.stats.snapshot(); st["transport_send_failures"] != 0 {
				t.Errorf("want every kept envelope sent: %v", st)
			}
		})
	}
}

// TestWriterProtocolBeforeBulk: protocol frames queued behind chunks
// still lead the flush, and a flush admits at most maxBulkPerBatch
// chunks, into the slots protocol traffic left.
func TestWriterProtocolBeforeBulk(t *testing.T) {
	s := newStalledWriter(t, true)
	const bulk, proto = 10, 5
	for i := 1; i <= bulk; i++ {
		s.tr.send(2, s.addr, queryEnv(1000+uint64(i)), laneBulk)
	}
	for i := 1; i <= proto; i++ {
		s.tr.send(2, s.addr, queryEnv(uint64(i)), laneQueue)
	}
	close(s.release)
	var want []uint64
	for i := 0; i <= proto; i++ {
		want = append(want, uint64(i))
	}
	for i := 1; i <= bulk; i++ {
		want = append(want, 1000+uint64(i))
	}
	for i, env := range s.recv(t, len(want)) {
		if id := env.Msg.(protocol.QueryMsg).ID; id != want[i] {
			t.Fatalf("envelope %d read is id %d, want %d (order %v)", i, id, want[i], want)
		}
	}
	// Flushes: the stalled envelope alone, then 5 protocol + 8 bulk, then
	// the last 2 chunks — each recorded after its write returns.
	waitFor(t, 10*time.Second, "every flush recorded", func() bool {
		return s.tr.batches.Sum() == float64(len(want))
	})
	if n, mx := s.tr.batches.Count(), s.tr.batches.Max(); n != 3 || mx != proto+maxBulkPerBatch {
		t.Errorf("%d flushes, largest %v; want 3, largest %d", n, mx, proto+maxBulkPerBatch)
	}
}

// TestWriterParkRace drives the exit/spawn hand-off from many producers
// at once: a writer exits when it finds its queues empty, and a frame
// queued as it does must spawn the next one, or it stays queued forever.
// Bursts are timed around a 1 ms writerIdle, so the idle tick also
// closes streams between bursts and writers redial, and the same load
// runs with streams that never close. Half the producers post (writing
// through whenever a link is idle), so write-throughs race takes, exits,
// spawns and idle closes too. Every envelope must end sent, failed or
// dropped — sends + send_failures + drops == enqueued — every queue
// empty and every writer gone; with the tick on, every stream ends
// closed. Run it with -race.
func TestWriterParkRace(t *testing.T) {
	for _, idle := range []time.Duration{time.Millisecond, -1} {
		nw := memnet.New()
		const peers, producers, bursts = 8, 4, 60
		addrs := make([]string, peers)
		for k := range addrs {
			ln, err := nw.Listen("mem:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[k] = ln.Addr().String()
			serveSink(t, ln, nil, func(envelope) {})
		}
		stats := new(counters)
		tr := newTransport(1, 1, stats)
		tr.writerIdle = idle
		tr.setDial(nw.Dial)
		t.Cleanup(tr.close)
		var wg sync.WaitGroup
		var mu sync.Mutex
		enqueued := 0
		for g := 0; g < producers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				sent := 0
				for b := 0; b < bursts; b++ {
					k := rng.Intn(peers)
					for i := rng.Intn(4); i >= 0; i-- {
						env := queryEnv(uint64(g)<<32 | uint64(sent))
						if g%2 == 0 {
							tr.send(model.NodeID(2+k), addrs[k], env, laneQueue)
						} else {
							tr.send(model.NodeID(2+k), addrs[k], env, lanePost)
						}
						sent++
					}
					// 0.5–1.5 ms: some bursts land on a running writer,
					// some just as it exits, some on a closed stream.
					time.Sleep(500*time.Microsecond + time.Duration(rng.Intn(1000))*time.Microsecond)
				}
				mu.Lock()
				enqueued += sent
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		waitFor(t, 10*time.Second, "every envelope sent, failed or dropped", func() bool {
			st := stats.snapshot()
			return st["transport_sends"]+st["transport_send_failures"]+st["transport_drops_queue_full"] == int64(enqueued)
		})
		if d := tr.queueDepth(); d != 0 {
			t.Errorf("idle %v: %d envelopes still queued", idle, d)
		}
		waitFor(t, 5*time.Second, "every writer gone", func() bool { return tr.writers() == 0 })
		if idle > 0 {
			waitFor(t, 5*time.Second, "every stream closed by the idle tick", func() bool { return openStreams(tr) == 0 })
			if stats.TransportIdleCloses.Load() < peers {
				t.Errorf("idle %v: %d idle closes over %d links", idle, stats.TransportIdleCloses.Load(), peers)
			}
		}
		t.Logf("idle %v: %d enqueued, %v", idle, enqueued, stats.snapshot())
	}
}
