package livenet

import (
	"testing"
	"time"

	"p2pshare/internal/membership"
	"p2pshare/internal/memnet"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
)

func testShape() Shape {
	return Shape{Documents: 400, Categories: 12, Nodes: 24, Clusters: 4, Seed: 77}
}

func TestShapeBuildDeterministic(t *testing.T) {
	sh := testShape()
	instA, assignA, placeA, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	instB, assignB, placeB, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	if instA.DocCount() != instB.DocCount() {
		t.Fatal("instances differ")
	}
	for c := range assignA {
		if assignA[c] != assignB[c] {
			t.Fatalf("assignment differs at category %d", c)
		}
	}
	for k := range placeA.Stored {
		if len(placeA.Stored[k]) != len(placeB.Stored[k]) {
			t.Fatalf("placement differs at node %d", k)
		}
	}
}

// TestMultiProcessStyleJoin boots independent StartNode peers — each with
// its own model reconstruction and private address book, exactly the
// cross-process semantics of cmd/p2pnode — and checks that a late joiner
// discovers the deployment through one bootstrap address and can query it.
func TestMultiProcessStyleJoin(t *testing.T) {
	sh := testShape()
	// Seed node.
	seedNode, err := StartNode(sh, 0, "127.0.0.1:0", "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seedNode.Close()

	// A handful of peers join through the seed.
	var nodes []*Node
	for id := model.NodeID(1); id <= 6; id++ {
		n, err := StartNode(sh, id, "127.0.0.1:0", seedNode.Addr(), Options{})
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}

	// The book gossips outward; every member should learn every address.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if seedNode.KnownPeers() == 7 && nodes[len(nodes)-1].KnownPeers() == 7 {
			break
		}
		time.Sleep(30 * time.Millisecond)
	}
	if got := seedNode.KnownPeers(); got != 7 {
		t.Fatalf("seed knows %d peers, want 7", got)
	}
	if got := nodes[len(nodes)-1].KnownPeers(); got != 7 {
		t.Fatalf("last joiner knows %d peers, want 7", got)
	}

	// A fresh joiner can query the deployment. Pick a category whose
	// serving cluster has running members among ids 0..6; with only a
	// fraction of the shape's 24 nodes running, some clusters are dark —
	// exactly like a partially-deployed real system — so probe until a
	// live category answers.
	inst, _, _, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	answered := false
	for c := 0; c < inst.CatCount() && !answered; c++ {
		out, err := nodes[0].Query(inst.Catalog.Cats[c].ID, 1, 2*time.Second)
		if err == nil && out.Done {
			answered = true
		}
	}
	if !answered {
		t.Fatal("no category answerable across the running subset")
	}
}

func TestStartNodeValidation(t *testing.T) {
	sh := testShape()
	if _, err := StartNode(sh, model.NodeID(999), "127.0.0.1:0", "", Options{}); err == nil {
		t.Error("out-of-shape id should fail")
	}
	if _, err := StartNode(sh, 0, "127.0.0.1:0", "127.0.0.1:1", Options{}); err == nil {
		t.Error("unreachable bootstrap should fail")
	}
}

// TestCorruptNodeIDsStayOutOfBook: a hello and a book naming ids outside
// the deployment — what a corrupted frame can still decode to — arrive
// over the fabric. Neither id reaches the address book or the failure
// detector, the hello is neither answered nor forwarded (a forwarded copy
// would be counted again by its receiver), and each id is counted once.
func TestCorruptNodeIDsStayOutOfBook(t *testing.T) {
	sh := Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9}
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{
		Membership: &membership.Config{ProbeInterval: time.Hour},
	})
	n, from := c.Nodes[0], c.Nodes[1]
	outside := model.NodeID(len(c.Nodes))
	peers := n.KnownPeers()
	alive, _ := n.MembershipCounts()

	runCmd(t, from, func(f *Node) {
		f.send(n.id, helloMsg{ID: outside + 7, Addr: "127.0.0.1:1"})
		f.send(n.id, bookMsg{Book: map[model.NodeID]string{outside + 3: "127.0.0.1:1", 2: c.Nodes[2].Addr()}})
	})
	waitFor(t, 5*time.Second, "both ids counted", func() bool { return n.Stats()["book_bad_ids"] == 2 })
	time.Sleep(100 * time.Millisecond)

	if got := n.KnownPeers(); got != peers {
		t.Errorf("address book %d → %d entries", peers, got)
	}
	if got, _ := n.MembershipCounts(); got != alive {
		t.Errorf("failure detector %d → %d alive", alive, got)
	}
	if got := n.Stats()["send_no_addr"]; got != 0 {
		t.Errorf("%d sends without an address: the bad hello was answered", got)
	}
	if got := c.Stats()["book_bad_ids"]; got != 2 {
		t.Errorf("cluster counted %d bad ids, want 2: the hello was forwarded", got)
	}
}

// TestJoinSurvivesBootstrapBlip: the bootstrap takes the first hello,
// then is down when the joiner re-announces one poll window later, then
// comes back on the same address. The failed re-announce is a retry, not
// the end of a join that had already reached the bootstrap.
func TestJoinSurvivesBootstrapBlip(t *testing.T) {
	hellos := make(chan helloMsg, 8)
	onEnv := func(env envelope) {
		if h, ok := env.Msg.(helloMsg); ok {
			hellos <- h
		}
	}
	boot := startSink(t, "127.0.0.1:0", nil, onEnv)
	addr := boot.addr()

	type started struct {
		n   *Node
		err error
	}
	joined := make(chan started, 1)
	go func() {
		n, err := StartNode(testShape(), 1, "127.0.0.1:0", addr, Options{})
		joined <- started{n, err}
	}()

	select {
	case <-hellos:
	case <-time.After(10 * time.Second):
		t.Fatal("first hello never reached the bootstrap")
	}
	// Down across the joiner's next re-announce (600 ms after the first),
	// back before the one after (1200 ms).
	boot.close()
	time.Sleep(900 * time.Millisecond)
	startSink(t, addr, nil, onEnv)

	// The restarted bootstrap answers the next hello with its book.
	tr := newTransport(0, 1, metrics.NewSyncCounter())
	defer tr.close()
	select {
	case h := <-hellos:
		tr.enqueue(h.ID, h.Addr, envelope{From: 0, Msg: bookMsg{Book: map[model.NodeID]string{0: addr, h.ID: h.Addr}}})
	case j := <-joined:
		t.Fatalf("join ended while the bootstrap was down: %v", j.err)
	case <-time.After(10 * time.Second):
		t.Fatal("joiner never re-announced to the restarted bootstrap")
	}
	select {
	case j := <-joined:
		if j.err != nil {
			t.Fatalf("join aborted by a transient re-announce failure: %v", j.err)
		}
		defer j.n.Close()
		if got := j.n.KnownPeers(); got <= 1 {
			t.Errorf("joined node knows %d peers, want > 1", got)
		}
		if j.n.Stats()["announce_retries"] == 0 {
			t.Error("the failed re-announce was not counted as a retry")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StartNode never returned")
	}
}
