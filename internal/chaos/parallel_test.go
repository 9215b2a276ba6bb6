package chaos

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"p2pshare/internal/model"
)

// runParallel drives W writes over each of L links from L concurrent
// goroutines (one writer per link — the shape of livenet's transport,
// where per-peer writer goroutines never share a link) and
// returns the bytes each link delivered. stagger perturbs goroutine
// scheduling so two runs interleave differently across links.
func runParallel(t *testing.T, seed int64, f Faults, links, writes int, stagger bool) map[Link][]byte {
	t.Helper()
	c := New(seed)
	c.SetDefault(f)

	out := make(map[Link][]byte, links)
	var outMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < links; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := Link{From: 1, To: model.NodeID(2 + i)}
			a, b := net.Pipe()
			wrapped := c.Wrap(a, l.From, l.To)
			var rd sync.WaitGroup
			rd.Add(1)
			var got []byte
			go func() {
				defer rd.Done()
				got, _ = io.ReadAll(b)
			}()
			for w := 0; w < writes; w++ {
				if stagger && w%7 == i%7 {
					// Perturb cross-link interleaving without touching the
					// per-link write order.
					time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
				}
				frame := make([]byte, 24)
				for j := range frame {
					frame[j] = byte(int(l.To)*31 + w + j*7)
				}
				if _, err := wrapped.Write(frame); err != nil {
					t.Errorf("link %v write %d: %v", l, w, err)
					break
				}
			}
			a.Close()
			rd.Wait()
			outMu.Lock()
			out[l] = got
			outMu.Unlock()
		}(i)
	}
	wg.Wait()
	return out
}

// TestChaosReplayParallelShards pins the determinism contract the live
// node's parallel link writers depend on: fault decisions are PRF(seed, link,
// write-index), so replaying a scenario with many writer goroutines
// running truly in parallel (GOMAXPROCS > 1) delivers byte-identical
// per-link streams even when the cross-link interleaving differs
// between runs. Before trusting any chaos repro from a parallel run,
// this is the property that must hold.
func TestChaosReplayParallelShards(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	f := Faults{Drop: 0.15, Corrupt: 0.15, Duplicate: 0.15, Reorder: 0.15}
	const links, writes = 8, 200

	first := runParallel(t, 42, f, links, writes, false)
	second := runParallel(t, 42, f, links, writes, true)
	if len(first) != links || len(second) != links {
		t.Fatalf("runs covered %d/%d links, want %d", len(first), len(second), links)
	}
	faulted := 0
	for l, b1 := range first {
		b2, ok := second[l]
		if !ok {
			t.Fatalf("link %v missing from second run", l)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("link %v diverged across parallel replays: %d vs %d bytes",
				l, len(b1), len(b2))
		}
		if len(b1) != writes*24 {
			faulted++ // drop/dup changed the byte count — faults fired here
		}
	}
	if faulted == 0 {
		t.Error("no link's stream was altered by faults; the replay proved nothing")
	}

	// A different seed must not reproduce the same streams.
	other := runParallel(t, 43, f, links, writes, false)
	same := 0
	for l, b1 := range first {
		if bytes.Equal(b1, other[l]) {
			same++
		}
	}
	if same == links {
		t.Error("different seeds produced identical fault patterns on every link")
	}
}

// TestChaosDecideIndexMonotonic checks concurrent decide() calls on ONE
// link hand out each write index exactly once (no duplicates, no gaps) —
// the counter is the PRF input, so a racy counter would silently break
// replay. Run under -race this also proves the counter path is properly
// locked.
func TestChaosDecideIndexMonotonic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	c := New(7)
	c.SetDefault(Faults{Drop: 0.5})
	l := Link{From: 3, To: 4}
	const goroutines, per = 8, 500

	// decide() doesn't return its index, but the decision stream is a
	// pure function of it: collect every drawn decision and check the
	// multiset matches a serial replay of the same count.
	type verdict struct{ drop bool }
	var mu sync.Mutex
	got := make([]verdict, 0, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]verdict, 0, per)
			for i := 0; i < per; i++ {
				d := c.decide(l, 24)
				local = append(local, verdict{d.drop})
			}
			mu.Lock()
			got = append(got, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()

	serial := New(7)
	serial.SetDefault(Faults{Drop: 0.5})
	drops := 0
	for i := 0; i < goroutines*per; i++ {
		if serial.decide(l, 24).drop {
			drops++
		}
	}
	gotDrops := 0
	for _, v := range got {
		if v.drop {
			gotDrops++
		}
	}
	if gotDrops != drops {
		t.Errorf("parallel run drew %d drops over %d decisions, serial replay drew %d — "+
			"write indices were lost or duplicated", gotDrops, goroutines*per, drops)
	}
	if drops == 0 || drops == goroutines*per {
		t.Errorf("degenerate drop count %d/%d; PRF draw looks broken", drops, goroutines*per)
	}
}
