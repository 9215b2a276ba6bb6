package livenet

// Tests for the construction API: every Options field takes effect at
// birth on both launch paths, and the zero-value Options means the same
// defaults on both.

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/model"
)

func optionsShape() Shape {
	return Shape{Documents: 160, Categories: 6, Nodes: 8, Clusters: 2, Seed: 33}
}

// nodeFingerprint gathers every Options-governed observable of one
// node, and the constants that stand in for the settings a deployment
// cannot change: the admission bound, the content plane's chunk size
// and cache admission, and the failure detector's probe interval.
type nodeFingerprint struct {
	maxFlight  int64
	cacheCap   int64
	hasCache   bool
	adaptOn    bool
	memberOn   bool
	pointKeys  string        // the point-in-time Stats keys shown, in order
	chunkSize  int           // 0 without a content plane
	cacheAdmit int           // 0 without a content cache
	probe      time.Duration // 0 without membership
}

func fingerprint(n *Node) nodeFingerprint {
	s := n.Stats()
	cap, hasCache := s["cache_capacity_bytes"]
	fp := nodeFingerprint{
		maxFlight:  n.inflightMax,
		cacheCap:   cap,
		hasCache:   hasCache,
		adaptOn:    s["adapt_enabled"] == 1,
		memberOn:   s["membership_alive"] > 0,
		cacheAdmit: n.cacheAdmit,
	}
	for _, k := range []string{"adapt_enabled", "fairness_x1000", "membership_alive", "membership_suspect"} {
		if _, ok := s[k]; ok {
			fp.pointKeys += k + " "
		}
	}
	if n.store != nil {
		fp.chunkSize = n.store.ChunkSize()
	}
	n.routeMu.Lock()
	if n.det != nil {
		fp.probe = n.det.Config().ProbeInterval
	}
	n.routeMu.Unlock()
	return fp
}

// The constants a launched node runs with, spelled out so that changing
// one of them fails these tests.
const (
	wantMaxInFlight = 1024                   // DefaultMaxInFlight
	wantChunkSize   = 64 << 10               // content.DefaultChunkSize
	wantCacheAdmit  = 2                      // defaultCacheAdmitHits
	wantProbe       = 400 * time.Millisecond // membership.DefaultConfig().ProbeInterval
)

// TestZeroValueOptionsMatchesLaunchDefaults pins the historical Launch
// defaults against the zero-value Options: default admission bound,
// default LRU cache, membership and adaptation off.
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
			maxFlight: wantMaxInFlight,
			cacheCap:  DefaultCacheBytes,
			hasCache:  true,
		}
		if fp != want {
			t.Fatalf("node %d zero-value Options: got %+v, want %+v", n.ID(), fp, want)
		}
	}
}

// TestLaunchOptionsMatchSetters: membership, adaptation, the requester
// cache and the content plane, all set through Options, take effect on
// every node of a launched cluster, which serves queries through its
// injected dialer. The admission bound, chunk size, cache admission and
// probe interval are the constants, not settings.
func TestLaunchOptionsMatchSetters(t *testing.T) {
	sh := optionsShape()
	sh.DocBytes = 64 << 10
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	const cacheBytes = int64(2 << 20)
	var dials atomic.Int64
	c, err := Launch(inst, assign, place, Options{
		Seed: sh.Seed,
		Hooks: NetHooks{Dial: func(_ model.NodeID, addr string) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}},
		CacheBytes: cacheBytes,
		Membership: true,
		Adaptation: &AdaptConfig{Interval: time.Hour}, // never fires during the test
		Content:    &ContentConfig{CacheBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := nodeFingerprint{
		maxFlight:  wantMaxInFlight,
		cacheCap:   cacheBytes,
		hasCache:   true,
		adaptOn:    true,
		memberOn:   true,
		pointKeys:  "adapt_enabled membership_alive membership_suspect ",
		chunkSize:  wantChunkSize,
		cacheAdmit: wantCacheAdmit,
		probe:      wantProbe,
	}
	for _, n := range c.Nodes {
		if fp := fingerprint(n); fp != want {
			t.Fatalf("node %d: Options not applied: got %+v, want %+v", n.ID(), fp, want)
		}
	}

	cat := bigCategory(inst)
	out, err := c.Nodes[0].Query(cat, 2, 5*time.Second)
	if err != nil || !out.Done {
		t.Fatalf("query: %v (done=%v)", err, out.Done)
	}
	if dials.Load() == 0 {
		t.Fatal("dial hook not exercised")
	}
}

// TestLaunchCacheDisabledEquivalence: CacheBytes < 0 at birth disables
// the requester cache — no cache at all, and repeat queries never count
// cache lookups.
func TestLaunchCacheDisabledEquivalence(t *testing.T) {
	sh := optionsShape()
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Launch(inst, assign, place, Options{Seed: sh.Seed, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cat := bigCategory(inst)
	for i := 0; i < 2; i++ {
		if _, err := c.Nodes[0].Query(cat, 1, 5*time.Second); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	s := c.Nodes[0].Stats()
	if _, ok := s["cache_capacity_bytes"]; ok {
		t.Fatalf("cache present with CacheBytes < 0: %v", s["cache_capacity_bytes"])
	}
	if s["cache_hit"]+s["cache_miss"] != 0 {
		t.Fatalf("disabled cache recorded lookups: hit=%d miss=%d", s["cache_hit"], s["cache_miss"])
	}
}

// TestStartNodeOptionsMatchSetters: on the StartNode path too, the
// cache and Adaptation take effect at birth, Membership off means no
// failure detector, and on turns it on at the default timing. On both
// launch paths Adaptation without Membership is refused: its moves ride
// the detector's probes.
func TestStartNodeOptionsMatchSetters(t *testing.T) {
	sh := optionsShape()
	const cacheBytes = int64(1 << 20)

	adaptOnly := Options{Adaptation: &AdaptConfig{Interval: time.Hour}}
	if n, err := StartNode(sh, 0, "127.0.0.1:0", "", adaptOnly); err == nil {
		n.Close()
		t.Fatal("StartNode accepted Adaptation without Membership")
	}
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c, err := Launch(inst, assign, place, adaptOnly); err == nil {
		c.Close()
		t.Fatal("Launch accepted Adaptation without Membership")
	}

	a, err := StartNode(sh, 0, "127.0.0.1:0", "", Options{
		CacheBytes: cacheBytes,
		Membership: true,
		Adaptation: &AdaptConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	want := nodeFingerprint{maxFlight: wantMaxInFlight, cacheCap: cacheBytes, hasCache: true,
		adaptOn: true, memberOn: true, pointKeys: "adapt_enabled membership_alive membership_suspect ", probe: wantProbe}
	if fa := fingerprint(a); fa != want {
		t.Fatalf("StartNode Options not applied: got %+v, want %+v", fa, want)
	}

	// Zero-value Options: the Launch defaults, membership off.
	z, err := StartNode(sh, 1, "127.0.0.1:0", "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer z.Close()
	want = nodeFingerprint{maxFlight: wantMaxInFlight, cacheCap: DefaultCacheBytes, hasCache: true}
	if fz := fingerprint(z); fz != want {
		t.Fatalf("StartNode zero-value Options: got %+v, want %+v", fz, want)
	}
	if alive, suspect := z.MembershipCounts(); alive != 0 || suspect != 0 {
		t.Fatalf("Membership off: detector counts %d alive, %d suspect; want 0, 0", alive, suspect)
	}

	// Membership on turns the detector on.
	m, err := StartNode(sh, 2, "127.0.0.1:0", "", Options{Membership: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if alive, _ := m.MembershipCounts(); alive < 1 {
		t.Fatalf("Membership on: detector counts %d alive, want >= 1 (itself)", alive)
	}
	if fm := fingerprint(m); !fm.memberOn || fm.probe != wantProbe {
		t.Fatalf("Membership on: got %+v, want the gauge and a %v probe interval", fm, wantProbe)
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
	n, err := StartNode(sh, 1, "127.0.0.1:0", seed.Addr(), Options{
		Hooks:      hooks,
		Membership: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if listens.Load() != 1 {
		t.Fatalf("listen hook called %d times, want 1", listens.Load())
	}
	// The persistent transport dials through the hook as soon as the
	// joined node's detector probes the seed.
	deadline := time.Now().Add(5 * time.Second)
	for dials.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if dials.Load() == 0 {
		t.Fatal("dial hook never exercised by the joined node")
	}
}
