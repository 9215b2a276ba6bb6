package livenet

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// sendFrame dials addr, opens a wire stream on it as a peer's transport
// would, writes env and returns the still-open connection.
func sendFrame(t *testing.T, dial func(string) (net.Conn, error), addr string, env envelope) net.Conn {
	t.Helper()
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.OpenStream(conn, time.Second); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := wire.WriteEnvelope(bw, env); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return conn
}

// rejectFrame sends env on a stream of its own and waits for the
// receiver to end that stream, which is what a malformed frame costs:
// once it returns the frame has been read and counted. A stream the
// receiver keeps open is an error.
func rejectFrame(t *testing.T, dial func(string) (net.Conn, error), addr string, env envelope) {
	t.Helper()
	conn := sendFrame(t, dial, addr, env)
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("%T frame: the receiver kept its stream open (%v)", env.Msg, err)
	}
}

// TestOutOfShapeIDsNeverReachTables: a live peer sends a 16-node
// deployment frames whose ids lie outside it — a publish from node 21, a
// publish-ack sampling members 22 and −9, a leader-load report for a
// cluster past the deployment's two, and a result carrying a document past the catalog for a pending
// query. Each frame ends its stream at decode and is counted; the NRT
// gains none of the ids, the query's outcome none of the documents, and
// the node keeps taking frames on fresh streams and answering queries.
func TestOutOfShapeIDsNeverReachTables(t *testing.T) {
	sh := Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9}
	nw := memnet.New()
	// No requester cache: the closing query must cross the network.
	c := launchOverMemnet(t, sh, nil, nw, Options{CacheBytes: -1})
	n, peer := c.Nodes[0], c.Nodes[1].id
	outside := model.NodeID(len(c.Nodes))
	docs := len(c.inst.Catalog.Docs)
	cat := c.inst.Catalog.Doc(0).Categories[0]
	var entry protocol.DCRTEntry
	locked(n, func(n *Node) { entry = n.dcrt[cat] })

	// A pending query the bad result names. Its resends are spent, so
	// only the frames below can answer it.
	const qid = 77
	ch := make(chan QueryOutcome, 1)
	withTable(n, func(n *Node) {
		n.inflight.Add(1)
		n.queries.pending[qid] = &pendingQuery{
			id: qid, cat: cat, want: 1, need: 1, docs: make(map[catalog.DocID]bool),
			ch: ch, deadline: time.Now().Add(time.Minute), resends: maxResends,
		}
	})

	for _, msg := range []any{
		protocol.PublishMsg{Doc: 0, Category: cat, Publisher: outside + 5},
		protocol.PublishAckMsg{Doc: 0, Category: cat, Entry: entry, Accepted: true, Members: []model.NodeID{outside + 6, -9}},
		wire.LeaderLoad{Epoch: 1, Cluster: model.ClusterID(c.inst.NumClusters + 1)},
		protocol.ResultMsg{ID: qid, Docs: []catalog.DocID{catalog.DocID(docs + 3)}, Hops: 1, From: peer},
	} {
		rejectFrame(t, nw.Dial, n.Addr(), envelope{From: peer, Msg: msg})
	}
	if got := n.Stats()["wire_bad_frames"]; got != 4 {
		t.Errorf("wire_bad_frames = %d, want 4 (one per frame)", got)
	}

	var strays []model.NodeID
	locked(n, func(n *Node) {
		for cl := 0; cl < n.inst.NumClusters; cl++ {
			for _, id := range n.nrt[model.ClusterID(cl)] {
				if id < 0 || id >= outside {
					strays = append(strays, id)
				}
			}
		}
	})
	if len(strays) > 0 {
		t.Errorf("NRT gained ids outside the deployment: %v", strays)
	}

	// A legitimate result on a fresh stream still completes the query,
	// and only with what it carried.
	sendFrame(t, nw.Dial, n.Addr(), envelope{From: peer, Msg: protocol.ResultMsg{
		ID: qid, Docs: []catalog.DocID{5}, Hops: 1, From: peer,
	}}).Close()
	select {
	case out := <-ch:
		if len(out.Docs) != 1 || out.Docs[0] != 5 {
			t.Errorf("query outcome docs = %v, want [5]", out.Docs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the legitimate result never completed the query")
	}
	if _, err := n.Query(cat, 1, 5*time.Second); err != nil {
		t.Errorf("node stopped serving queries: %v", err)
	}
}
