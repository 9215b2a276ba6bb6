package chaos

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"

	"p2pshare/internal/model"
)

// script writes a fixed sequence of frames through a fault-wrapped pipe
// and returns exactly what came out the far end.
func script(t *testing.T, seed int64, f Faults, writes int) []byte {
	t.Helper()
	c := New(seed)
	c.SetLink(1, 2, f)
	a, b := net.Pipe()
	wrapped := c.Wrap(a, 1, 2)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		for i := 0; i < writes; i++ {
			frame := make([]byte, 24)
			for j := range frame {
				frame[j] = byte(i + j*7)
			}
			if _, err := wrapped.Write(frame); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	wg.Wait()
	return got
}

// TestChaosDeterministicReplay pins the acceptance property: the same
// seed replays the same fault pattern byte-identically — same writes
// dropped, same duplicates, same reorders, same bytes flipped at the
// same offsets.
func TestChaosDeterministicReplay(t *testing.T) {
	f := Faults{Drop: 0.2, Corrupt: 0.2, Duplicate: 0.2, Reorder: 0.2}
	const writes = 300
	first := script(t, 42, f, writes)
	second := script(t, 42, f, writes)
	if !bytes.Equal(first, second) {
		t.Fatalf("same seed diverged: run1 %d bytes, run2 %d bytes", len(first), len(second))
	}
	clean := script(t, 42, Faults{}, writes)
	if bytes.Equal(first, clean) {
		t.Fatal("faulted run identical to clean run; faults never fired")
	}
	other := script(t, 43, f, writes)
	if bytes.Equal(first, other) {
		t.Fatal("different seeds produced identical fault patterns")
	}
	if want := writes * 24; len(clean) != want {
		t.Fatalf("clean run carried %d bytes, want %d", len(clean), want)
	}
}

// TestChaosDropLosesWholeWrites checks Drop=1 silently discards every
// write while reporting success to the sender (message-loss semantics).
func TestChaosDropLosesWholeWrites(t *testing.T) {
	got := script(t, 7, Faults{Drop: 1}, 50)
	if len(got) != 0 {
		t.Fatalf("Drop=1 still delivered %d bytes", len(got))
	}
}

// TestChaosCorruptFlipsBytes checks corruption changes payload bytes
// without changing stream length (frame-poisoning, not truncation).
func TestChaosCorruptFlipsBytes(t *testing.T) {
	const writes = 40
	clean := script(t, 11, Faults{}, writes)
	dirty := script(t, 11, Faults{Corrupt: 1}, writes)
	if len(clean) != len(dirty) {
		t.Fatalf("corruption changed stream length: %d vs %d", len(clean), len(dirty))
	}
	if bytes.Equal(clean, dirty) {
		t.Fatal("Corrupt=1 flipped nothing")
	}
}

// TestChaosCutRefusesDialsAndKillsStreams checks the partition
// primitive end to end over real TCP: established streams error, dials
// are refused, and Heal restores both.
func TestChaosCutRefusesDialsAndKillsStreams(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()

	c := New(99)
	c.Register(model.NodeID(2), ln.Addr().String())

	conn, err := c.DialFrom(1, ln.Addr().String())
	if err != nil {
		t.Fatalf("pre-cut dial: %v", err)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatalf("pre-cut write: %v", err)
	}

	c.Cut(1, 2)
	if _, err := conn.Write([]byte("into the void")); err == nil {
		t.Fatal("write on a cut link succeeded")
	}
	if _, err := c.DialFrom(1, ln.Addr().String()); err == nil {
		t.Fatal("dial across a cut link succeeded")
	}

	c.Heal()
	conn2, err := c.DialFrom(1, ln.Addr().String())
	if err != nil {
		t.Fatalf("post-heal dial: %v", err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("back")); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
}

// TestChaosPartitionIsAsymmetric checks PartitionOneWay cuts only the
// named direction.
func TestChaosPartitionIsAsymmetric(t *testing.T) {
	c := New(5)
	c.PartitionOneWay([]model.NodeID{1}, []model.NodeID{2})
	if !c.faultsForTest(Link{1, 2}).Cut {
		t.Error("1->2 not cut")
	}
	if c.faultsForTest(Link{2, 1}).Cut {
		t.Error("2->1 cut by a one-way partition")
	}
	c.Partition([]model.NodeID{1}, []model.NodeID{2, 3})
	for _, l := range []Link{{1, 2}, {2, 1}, {1, 3}, {3, 1}} {
		if !c.faultsForTest(l).Cut {
			t.Errorf("%d->%d not cut by Partition", l.From, l.To)
		}
	}
	c.Heal()
	for _, l := range []Link{{1, 2}, {2, 1}, {1, 3}, {3, 1}} {
		if c.faultsForTest(l).Cut {
			t.Errorf("%d->%d still cut after Heal", l.From, l.To)
		}
	}
}

// faultsForTest exposes effective link faults to tests.
func (c *Net) faultsForTest(l Link) Faults {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faultsFor(l)
}
