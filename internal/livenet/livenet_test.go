package livenet

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/core"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/replica"
)

// launchSmall starts a compact live cluster on loopback.
func launchSmall(t *testing.T, seed int64) (*Cluster, *model.Instance) {
	t.Helper()
	return launchWith(t, seed, Options{})
}

// launchWith is launchSmall with the given Options; their Seed is set
// to seed.
func launchWith(t *testing.T, seed int64, opts Options) (*Cluster, *model.Instance) {
	t.Helper()
	return launchPlaced(t, seed, opts, func(*model.Instance) {})
}

// launchPlaced is launchWith with grow run on the instance after
// placement and before launch: documents it adds are part of the
// deployment, held by no node.
func launchPlaced(t *testing.T, seed int64, opts Options, grow func(*model.Instance)) (*Cluster, *model.Instance) {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = 400
	cfg.Catalog.NumCats = 12
	cfg.NumNodes = 24
	cfg.NumClusters = 4
	cfg.Seed = seed
	inst, err := model.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MaxFair(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := model.NewMembership(inst, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	place, err := replica.Place(inst, res.Assignment, mem, replica.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	grow(inst)
	opts.Seed = seed
	c, err := Launch(inst, res.Assignment, place, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, inst
}

func bigCategory(inst *model.Instance) catalog.CategoryID {
	best, docs := catalog.CategoryID(0), -1
	for i := range inst.Catalog.Cats {
		if n := len(inst.Catalog.Cats[i].Docs); n > docs {
			best, docs = inst.Catalog.Cats[i].ID, n
		}
	}
	return best
}

func TestLiveQueryOverTCP(t *testing.T) {
	c, inst := launchSmall(t, 1)
	cat := bigCategory(inst)
	out, err := c.Nodes[0].Query(cat, 3, 5*time.Second)
	if err != nil {
		t.Fatalf("query failed: %v (got %d docs)", err, len(out.Docs))
	}
	if !out.Done || len(out.Docs) < 3 {
		t.Fatalf("outcome: %+v", out)
	}
	if out.Hops < 1 {
		t.Errorf("hops = %d", out.Hops)
	}
	// Returned documents genuinely belong to the category.
	for _, d := range out.Docs {
		if inst.Catalog.Doc(d).Categories[0] != cat {
			t.Errorf("doc %d is not in category %d", d, cat)
		}
	}
}

func TestLiveQueriesFromManyOrigins(t *testing.T) {
	c, inst := launchSmall(t, 2)
	cat := bigCategory(inst)
	type result struct {
		err  error
		done bool
	}
	results := make(chan result, len(c.Nodes))
	for _, n := range c.Nodes {
		go func(n *Node) {
			out, err := n.Query(cat, 2, 5*time.Second)
			results <- result{err, out.Done}
		}(n)
	}
	ok := 0
	for range c.Nodes {
		r := <-results
		if r.err == nil && r.done {
			ok++
		}
	}
	if ok < len(c.Nodes)*8/10 {
		t.Errorf("only %d of %d concurrent live queries completed", ok, len(c.Nodes))
	}
}

func TestLiveServingLoadRecorded(t *testing.T) {
	c, inst := launchSmall(t, 3)
	cat := bigCategory(inst)
	for i := 0; i < 10; i++ {
		if _, err := c.Nodes[i%len(c.Nodes)].Query(cat, 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, n := range c.Nodes {
		total += n.Served()
	}
	if total < 10 {
		t.Errorf("served total %d < 10 queries", total)
	}
}

func TestLivePublishBecomesQueryable(t *testing.T) {
	// A brand-new document published by node 5. A live deployment's
	// catalog is fixed at launch (frames naming any other document are
	// malformed), so the document joins it first; placement has already
	// run, so no node holds it until the publish.
	var ids []catalog.DocID
	c, inst := launchPlaced(t, 4, Options{}, func(inst *model.Instance) {
		var err error
		if ids, err = inst.Catalog.AddDocuments(1, 0.05, 0.8, rand.New(rand.NewSource(4))); err != nil {
			t.Fatal(err)
		}
		if err := inst.AttachDocument(ids[0], 5); err != nil {
			t.Fatal(err)
		}
	})
	publisher := c.Nodes[5]
	if err := publisher.Publish(ids[0]); err != nil {
		t.Fatal(err)
	}
	// The placement the holder view is built from never saw the
	// document, so its publisher is the one node that answers with it:
	// as the entry member, which answers everything it holds up to m.
	cat := inst.Catalog.Doc(ids[0]).Categories[0]
	var held int
	locked(publisher, func(n *Node) { held = len(n.byCat[cat]) })
	routeVia(t, c.Nodes[1], cat, publisher.id)
	out, err := c.Nodes[1].Query(cat, held, 5*time.Second)
	if err != nil || !out.Done {
		t.Fatalf("query through the publisher: %v, done %v", err, out.Done)
	}
	if !slices.Contains(out.Docs, ids[0]) {
		t.Fatalf("published document %d not among the %d results %v", ids[0], held, out.Docs)
	}
}

// TestDocumentAddedAfterLaunchIsRefused: every peer decodes frames
// against the catalog the deployment launched with, so a document added
// later could only be announced in frames they all reject. Publish and
// Fetch refuse it up front instead of reporting success.
func TestDocumentAddedAfterLaunchIsRefused(t *testing.T) {
	c, inst := launchSmall(t, 4)
	ids, err := inst.Catalog.AddDocuments(1, 0.05, 0.8, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.AttachDocument(ids[0], 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[5].Publish(ids[0]); err == nil {
		t.Error("Publish of a document added after launch succeeded")
	}
	if _, err := c.Nodes[1].Fetch(context.Background(), ids[0]); err == nil {
		t.Error("Fetch of a document added after launch succeeded")
	}
	if got := c.Nodes[1].Stats()["fetch_bad_doc"]; got != 1 {
		t.Errorf("fetch_bad_doc = %d, want 1", got)
	}
}

// TestPublishSkipsUnaddressableMembers: the first three NRT peers the
// publisher has for the serving cluster are missing from its address book
// (down, or never joined). The publish goes to the next member that is
// addressable, whose PublishAck comes back — its member sample lands in
// the publisher's NRT. With no addressable member left, Publish fails with
// ErrNoRoute instead of returning nil having sent nothing.
func TestPublishSkipsUnaddressableMembers(t *testing.T) {
	sh := Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9}
	inst, assign, _, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := model.NewMembership(inst, assign)
	if err != nil {
		t.Fatal(err)
	}
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{})
	p := c.Nodes[0]
	cg := inst.Catalog.Cats[bigCategory(inst)]
	cl, doc := assign[cg.ID], cg.Docs[0]
	var targets []model.NodeID
	for _, id := range mem.NodesOf(cl) {
		if id != p.id && len(targets) < 4 {
			targets = append(targets, id)
		}
	}
	if len(targets) < 4 {
		t.Fatal("serving cluster has fewer than four other members")
	}
	locked(p, func(n *Node) {
		n.nrt[cl] = slices.Clone(targets)
		for _, id := range targets[:3] {
			n.book.del(id)
		}
	})
	var visible bool
	locked(c.Nodes[targets[3]], func(n *Node) {
		visible = slices.ContainsFunc(n.nrt[cl], func(id model.NodeID) bool { return id != p.id && !slices.Contains(targets, id) })
	})
	if !visible {
		t.Fatal("the addressable member's NRT names no new member: its ack would be invisible")
	}

	if err := p.Publish(doc); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	waitFor(t, 5*time.Second, "PublishAck from the addressable member", func() bool {
		var l int
		locked(p, func(n *Node) { l = len(n.nrt[cl]) })
		return l > len(targets)
	})
	if got := p.Stats()["send_no_addr"]; got != 0 {
		t.Errorf("publish sent %d envelopes to members without an address", got)
	}

	locked(p, func(n *Node) { n.nrt[cl] = slices.Clone(targets[:3]) })
	if err := p.Publish(doc); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Publish with no addressable member: %v, want ErrNoRoute", err)
	}
	if got := p.Stats()["publish_no_route"]; got != 1 {
		t.Errorf("publish_no_route = %d, want 1", got)
	}
}

func TestLiveQueryTimeoutOnImpossibleDemand(t *testing.T) {
	c, inst := launchSmall(t, 5)
	cat := bigCategory(inst)
	// The origin's view claims more documents than are placed: the
	// query cannot complete and must time out with partial results.
	want := unsatisfiable(t, c.Nodes[2], cat)
	out, err := c.Nodes[2].Query(cat, want, 1500*time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
	if out.Done {
		t.Error("impossible demand reported done")
	}
	if len(out.Docs) == 0 {
		t.Error("timeout should still return partial results")
	}
}

func TestLiveClusterCloseIdempotent(t *testing.T) {
	c, _ := launchSmall(t, 6)
	c.Close()
	c.Close() // second close must not panic or hang
}
