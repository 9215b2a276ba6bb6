package livenet

// Equivalence tests for the construction API: birth-time configuration
// through Options must match the equivalent post-construction setter
// calls, and the zero-value Options must reproduce each path's defaults.

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/cache"
	"p2pshare/internal/membership"
	"p2pshare/internal/model"
)

func optionsShape() Shape {
	return Shape{Documents: 160, Categories: 6, Nodes: 8, Clusters: 2, Seed: 33}
}

// nodeFingerprint gathers every Options-governed observable of one node.
type nodeFingerprint struct {
	shards    int
	maxFlight int64
	cacheCap  int64
	hasCache  bool
	adaptOn   bool
	memberOn  bool
}

func fingerprint(n *Node) nodeFingerprint {
	s := n.Stats()
	cap, hasCache := s["cache_capacity_bytes"]
	alive := s["membership_alive"]
	return nodeFingerprint{
		shards:    n.Shards(),
		maxFlight: s["max_inflight"],
		cacheCap:  cap,
		hasCache:  hasCache,
		adaptOn:   s["adapt_enabled"] == 1,
		memberOn:  alive > 0,
	}
}

func checkFingerprintsEqual(t *testing.T, name string, a, b nodeFingerprint) {
	t.Helper()
	if a != b {
		t.Fatalf("%s: fingerprints differ:\n  setter path: %+v\n  options path: %+v", name, a, b)
	}
}

// TestZeroValueOptionsMatchesLaunchDefaults pins the historical Launch
// defaults against the zero-value Options: default shard count, default
// admission bound, default LRU cache, membership and adaptation off.
func TestZeroValueOptionsMatchesLaunchDefaults(t *testing.T) {
	sh := optionsShape()
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Launch(inst, assign, place, Options{Seed: sh.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range c.Nodes {
		fp := fingerprint(n)
		want := nodeFingerprint{
			shards:    DefaultShards(),
			maxFlight: DefaultMaxInFlight,
			cacheCap:  DefaultCacheBytes,
			hasCache:  true,
		}
		if fp != want {
			t.Fatalf("node %d zero-value Options: got %+v, want %+v", n.ID(), fp, want)
		}
	}
}

// TestLaunchOptionsMatchSetters builds one cluster through
// post-construction setters and one through birth Options, and requires
// identical configuration observables plus working query service and
// dial-hook injection on both.
func TestLaunchOptionsMatchSetters(t *testing.T) {
	sh := optionsShape()
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	mcfg := membership.Config{}
	acfg := AdaptConfig{Interval: time.Hour} // never fires during the test
	const maxFlight, cacheBytes = 37, int64(2 << 20)

	var dialsA, dialsB atomic.Int64
	hook := func(ctr *atomic.Int64) NetHooks {
		return NetHooks{Dial: func(_ model.NodeID, addr string) (net.Conn, error) {
			ctr.Add(1)
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}}
	}

	// Four setter calls per node.
	a, err := Launch(inst, assign, place, Options{Seed: sh.Seed, Hooks: hook(&dialsA), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, n := range a.Nodes {
		n.SetMaxInFlight(maxFlight)
		if err := n.SetCacheCapacity(cache.LFU, cacheBytes); err != nil {
			t.Fatal(err)
		}
	}
	a.StartMembership(mcfg)
	a.EnableAdaptation(acfg)

	// One call.
	b, err := Launch(inst, assign, place, Options{
		Seed:        sh.Seed,
		Shards:      3,
		Hooks:       hook(&dialsB),
		MaxInFlight: maxFlight,
		CacheBytes:  cacheBytes,
		CachePolicy: cache.LFU,
		Membership:  &mcfg,
		Adaptation:  &acfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := range a.Nodes {
		fa, fb := fingerprint(a.Nodes[i]), fingerprint(b.Nodes[i])
		checkFingerprintsEqual(t, "launch", fa, fb)
		if !fa.memberOn || !fa.adaptOn {
			t.Fatalf("node %d: membership/adaptation not enabled on setter path: %+v", i, fa)
		}
	}

	// Both clusters serve queries through their injected dialers.
	cat := bigCategory(inst)
	for name, c := range map[string]*Cluster{"setters": a, "options": b} {
		out, err := c.Nodes[0].Query(cat, 2, 5*time.Second)
		if err != nil || !out.Done {
			t.Fatalf("%s cluster query: %v (done=%v)", name, err, out.Done)
		}
	}
	if dialsA.Load() == 0 || dialsB.Load() == 0 {
		t.Fatalf("dial hooks not exercised: setters=%d options=%d", dialsA.Load(), dialsB.Load())
	}
}

// TestLaunchCacheDisabledEquivalence: CacheBytes < 0 at birth must equal
// the SetCacheCapacity(_, 0) disable — no cache generation at
// all, and repeat queries never count cache lookups.
func TestLaunchCacheDisabledEquivalence(t *testing.T) {
	sh := optionsShape()
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Launch(inst, assign, place, Options{Seed: sh.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, n := range a.Nodes {
		if err := n.SetCacheCapacity(cache.LRU, 0); err != nil {
			t.Fatal(err)
		}
	}
	b, err := Launch(inst, assign, place, Options{Seed: sh.Seed, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	cat := bigCategory(inst)
	for name, c := range map[string]*Cluster{"setters": a, "options": b} {
		for i := 0; i < 2; i++ {
			if _, err := c.Nodes[0].Query(cat, 1, 5*time.Second); err != nil {
				t.Fatalf("%s query %d: %v", name, i, err)
			}
		}
		s := c.Nodes[0].Stats()
		if _, ok := s["cache_capacity_bytes"]; ok {
			t.Fatalf("%s: cache still present after disable: %v", name, s["cache_capacity_bytes"])
		}
		if s["cache_hit"]+s["cache_miss"] != 0 {
			t.Fatalf("%s: disabled cache recorded lookups: hit=%d miss=%d",
				name, s["cache_hit"], s["cache_miss"])
		}
	}
}

// TestStartNodeOptionsMatchSetters: birth Options and post-construction
// setters must agree, and the StartNode zero value must keep membership
// ON (its default).
func TestStartNodeOptionsMatchSetters(t *testing.T) {
	sh := optionsShape()
	acfg := AdaptConfig{Interval: time.Hour}
	const maxFlight, cacheBytes = 19, int64(1 << 20)

	a, err := StartNode(sh, 0, "127.0.0.1:0", "", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetMaxInFlight(maxFlight)
	if err := a.SetCacheCapacity(cache.LFU, cacheBytes); err != nil {
		t.Fatal(err)
	}
	a.EnableAdaptation(acfg)

	b, err := StartNode(sh, 1, "127.0.0.1:0", "", Options{
		Shards:      2,
		MaxInFlight: maxFlight,
		CacheBytes:  cacheBytes,
		CachePolicy: cache.LFU,
		Adaptation:  &acfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	fa, fb := fingerprint(a), fingerprint(b)
	checkFingerprintsEqual(t, "startnode", fa, fb)
	if !fa.memberOn {
		t.Fatalf("StartNode must keep membership on by default: %+v", fa)
	}
	if !fa.adaptOn || !fb.adaptOn {
		t.Fatalf("adaptation not enabled: setters=%v options=%v", fa.adaptOn, fb.adaptOn)
	}

	// Zero-value Options on the StartNode path: defaults, membership on.
	z, err := StartNode(sh, 2, "127.0.0.1:0", "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer z.Close()
	fz := fingerprint(z)
	want := nodeFingerprint{
		shards:    DefaultShards(),
		maxFlight: DefaultMaxInFlight,
		cacheCap:  DefaultCacheBytes,
		hasCache:  true,
		memberOn:  true,
	}
	if fz != want {
		t.Fatalf("StartNode zero-value Options: got %+v, want %+v", fz, want)
	}
}

// TestStartNodeHooksInjected: StartNode accepts the same NetHooks seam
// Launch does (the harness runs chaos middleware under standalone
// nodes), and the hooks carry real traffic during a join.
func TestStartNodeHooksInjected(t *testing.T) {
	sh := optionsShape()
	var listens, dials atomic.Int64
	hooks := NetHooks{
		Listen: func(_ model.NodeID, addr string) (net.Listener, error) {
			listens.Add(1)
			return net.Listen("tcp", addr)
		},
		Dial: func(_ model.NodeID, addr string) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
	}
	seed, err := StartNode(sh, 0, "127.0.0.1:0", "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	n, err := StartNode(sh, 1, "127.0.0.1:0", seed.Addr(), Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if listens.Load() != 1 {
		t.Fatalf("listen hook called %d times, want 1", listens.Load())
	}
	// The persistent transport dials through the hook as soon as the
	// join's book reply goes out (membership probes keep it busy too).
	deadline := time.Now().Add(5 * time.Second)
	for dials.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if dials.Load() == 0 {
		t.Fatal("dial hook never exercised by the joined node")
	}
}
