// Package soak drives a live loopback cluster through scripted chaos
// scenarios while checking the invariants a healthy livenet must hold
// under faults: the node's locks stay responsive, no pending query
// outlives its deadline, every long-lived state table stays bounded,
// and query service recovers after the network heals.
//
// A soak run is seeded end to end: the fault pattern is a pure function
// of the chaos seed (see internal/chaos), the synthetic workload and
// instance derive from the same seed, and every failure report carries
// the seed plus a copy-paste replay command. Residual nondeterminism is
// limited to goroutine and socket scheduling of the system under test.
package soak

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"net"
	"p2pshare/internal/catalog"
	"p2pshare/internal/chaos"
	"p2pshare/internal/core"
	"p2pshare/internal/livenet"
	"p2pshare/internal/membership"
	"p2pshare/internal/model"
	"p2pshare/internal/replica"
	"sync"
)

// Config sizes a soak run. The zero value is completed by withDefaults.
type Config struct {
	// Seed drives the instance, the workload, and the chaos fault
	// pattern. Replaying with the same seed reproduces the same faults.
	Seed int64
	// Nodes / Clusters / Docs / Cats size the synthetic instance.
	Nodes, Clusters, Docs, Cats int
	// Out receives progress lines; nil discards them.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 12
	}
	if c.Clusters <= 0 {
		c.Clusters = 3
	}
	if c.Docs <= 0 {
		c.Docs = 360
	}
	if c.Cats <= 0 {
		c.Cats = 9
	}
	return c
}

// Action is one scripted fault-injection step, applied At after the
// scenario starts. Do receives the live Run and may manipulate the
// chaos layer (r.Net), kill nodes (r.Kill), or toggle subsystems.
type Action struct {
	At   time.Duration
	Name string
	Do   func(*Run)
}

// Scenario scripts one soak: a fault timeline over Length, after which
// the run heals everything, lets the cluster settle, and probes for
// recovery.
type Scenario struct {
	Name, Desc string
	// Length is how long the fault timeline runs before the heal.
	Length time.Duration
	// Adapt enables the §6.1 adaptation loop (short epochs) so
	// scenarios can interleave faults with rebalancing.
	Adapt   bool
	Actions []Action
}

// Report summarizes a finished soak run.
type Report struct {
	Scenario   string
	Seed       int64
	Elapsed    time.Duration
	Queries    int // workload queries issued during the fault timeline
	Succeeded  int // of those, completed Done
	ProbeOK    int // recovery probes that succeeded after heal
	ProbeTotal int
	Violations []string
}

// Run is the live state handed to scenario actions.
type Run struct {
	Cluster *livenet.Cluster
	Net     *chaos.Net
	Inst    *model.Instance
	Assign  []model.ClusterID

	cfg  Config
	rng  *rand.Rand
	logf func(string, ...any)

	mu         sync.Mutex
	dead       map[model.NodeID]bool
	violations []string
}

// Logf writes a progress line to the run's output.
func (r *Run) Logf(format string, args ...any) { r.logf(format, args...) }

// Kill shuts a node down permanently (process death, not a link fault):
// its listener closes, dials to it fail, and the failure detector
// eventually declares it dead.
func (r *Run) Kill(id model.NodeID) {
	r.mu.Lock()
	already := r.dead[id]
	r.dead[id] = true
	r.mu.Unlock()
	if already {
		return
	}
	r.logf("  kill node %d", id)
	r.Cluster.Nodes[id].Close()
}

// Alive returns the nodes not killed by the scenario, in id order.
func (r *Run) Alive() []*livenet.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*livenet.Node
	for _, n := range r.Cluster.Nodes {
		if n != nil && !r.dead[n.ID()] {
			out = append(out, n)
		}
	}
	return out
}

// Members returns the ids assigned to a node cluster, in id order.
func (r *Run) Members(cl model.ClusterID) []model.NodeID {
	var out []model.NodeID
	for id, c := range r.Assign {
		if c == cl {
			out = append(out, model.NodeID(id))
		}
	}
	return out
}

// LeaderOf returns the deterministic leader of a cluster under the
// static capability view: the most capable member, ties to the lowest
// id — mirroring livenet's election so scenarios can target it.
func (r *Run) LeaderOf(cl model.ClusterID) model.NodeID {
	best, bestU := model.NodeID(-1), -1.0
	for _, id := range r.Members(cl) {
		r.mu.Lock()
		dead := r.dead[id]
		r.mu.Unlock()
		if dead {
			continue
		}
		if u := r.Inst.Nodes[id].Units; u > bestU {
			best, bestU = id, u
		}
	}
	return best
}

// Halves splits the node population into two groups by id parity —
// cutting across clusters, so a partition degrades every cluster
// instead of isolating one.
func (r *Run) Halves() (a, b []model.NodeID) {
	for id := range r.Cluster.Nodes {
		if id%2 == 0 {
			a = append(a, model.NodeID(id))
		} else {
			b = append(b, model.NodeID(id))
		}
	}
	return a, b
}

func (r *Run) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.violations = append(r.violations, msg)
	r.mu.Unlock()
	r.logf("  INVARIANT VIOLATION: %s", msg)
}

// bigCategory picks the most populated category — the workload target,
// guaranteed to have servable documents.
func bigCategory(inst *model.Instance) catalog.CategoryID {
	best, docs := catalog.CategoryID(0), -1
	for i := range inst.Catalog.Cats {
		if n := len(inst.Catalog.Cats[i].Docs); n > docs {
			best, docs = inst.Catalog.Cats[i].ID, n
		}
	}
	return best
}

// tableSizesWithin reads a node's table sizes, bounding the wait: a
// node whose routing lock or query-table lock is wedged cannot answer, which
// is itself the invariant violation the timeout detects.
func tableSizesWithin(n *livenet.Node, d time.Duration) (map[string]int, bool) {
	ch := make(chan map[string]int, 1)
	go func() { ch <- n.TableSizes() }()
	select {
	case s := <-ch:
		return s, true
	case <-time.After(d):
		return nil, false
	}
}

// checkInvariants sweeps every live node once. overdueSlack allows for
// sweep latency: an entry is only "stuck" once it outlived its deadline
// by more than a sweep period plus grace.
func (r *Run) checkInvariants(overdueSlack time.Duration) {
	nNodes := len(r.Cluster.Nodes)
	for _, n := range r.Alive() {
		sizes, ok := tableSizesWithin(n, 3*time.Second)
		if !ok {
			r.violate("node %d unresponsive for 3s (TableSizes blocked)", n.ID())
			continue
		}
		if sizes == nil { // node shut down between Alive() and here
			continue
		}
		bounds := []struct {
			key string
			max int
		}{
			{"pending", livenet.DefaultMaxInFlight},
			{"book", nNodes},
			{"tombstones", nNodes},
			{"nrt", nNodes * r.cfg.Clusters},
			{"cache_index", 1 << 17},
		}
		for _, b := range bounds {
			if v := sizes[b.key]; v > b.max {
				r.violate("node %d table %q grew to %d (bound %d)",
					n.ID(), b.key, v, b.max)
			}
		}
		if overdue := n.OverduePending(overdueSlack); overdue > 0 {
			r.violate("node %d has %d pending queries stuck past deadline+%s",
				n.ID(), overdue, overdueSlack)
		}
	}
}

// RunScenario executes one scenario at the given config and reports.
// The returned error is non-nil when any invariant was violated or
// recovery failed; its message includes the seed and a replay command.
func RunScenario(sc Scenario, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, format+"\n", args...)
		}
	}
	start := time.Now()
	logf("scenario %q seed=%d nodes=%d clusters=%d", sc.Name, cfg.Seed, cfg.Nodes, cfg.Clusters)

	mcfg := model.DefaultConfig()
	mcfg.Catalog.NumDocs = cfg.Docs
	mcfg.Catalog.NumCats = cfg.Cats
	mcfg.NumNodes = cfg.Nodes
	mcfg.NumClusters = cfg.Clusters
	mcfg.Seed = cfg.Seed
	inst, err := model.Generate(mcfg)
	if err != nil {
		return Report{}, fmt.Errorf("generate: %w", err)
	}
	res, err := core.MaxFair(inst, core.Options{})
	if err != nil {
		return Report{}, fmt.Errorf("assign: %w", err)
	}
	mem, err := model.NewMembership(inst, res.Assignment)
	if err != nil {
		return Report{}, fmt.Errorf("membership: %w", err)
	}
	place, err := replica.Place(inst, res.Assignment, mem, replica.DefaultConfig())
	if err != nil {
		return Report{}, fmt.Errorf("placement: %w", err)
	}

	cn := chaos.New(cfg.Seed)
	hooks := livenet.NetHooks{
		Listen: func(id model.NodeID, addr string) (net.Listener, error) {
			ln, err := net.Listen("tcp", addr)
			if err == nil {
				cn.Register(id, ln.Addr().String())
			}
			return ln, err
		},
		Dial: cn.DialFrom,
	}
	opts := livenet.Options{
		Seed:       cfg.Seed,
		Hooks:      hooks,
		Membership: &membership.Config{},
	}
	if sc.Adapt {
		opts.Adaptation = &livenet.AdaptConfig{
			Interval:       900 * time.Millisecond,
			LowThreshold:   0.9,
			TargetFairness: 0.95,
			MaxMoves:       8,
		}
	}
	c, err := livenet.Launch(inst, res.Assignment, place, opts)
	if err != nil {
		return Report{}, fmt.Errorf("launch: %w", err)
	}
	defer c.Close()

	r := &Run{
		Cluster: c,
		Net:     cn,
		Inst:    inst,
		Assign:  res.Assignment,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x50a4)),
		logf:    logf,
		dead:    map[model.NodeID]bool{},
	}
	cat := bigCategory(inst)

	// Background workload: queries from random live nodes throughout
	// the fault timeline. Failures during faults are expected and only
	// counted; the recovery probe after heal is the pass/fail signal.
	stop := make(chan struct{})
	var wl sync.WaitGroup
	var wlMu sync.Mutex
	issued, succeeded := 0, 0
	wl.Add(1)
	go func() {
		defer wl.Done()
		tick := time.NewTicker(120 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			alive := r.Alive()
			if len(alive) == 0 {
				continue
			}
			r.mu.Lock()
			n := alive[r.rng.Intn(len(alive))]
			r.mu.Unlock()
			wl.Add(1)
			go func() {
				defer wl.Done()
				out, err := n.Query(cat, 1, 3*time.Second)
				wlMu.Lock()
				issued++
				if err == nil && out.Done {
					succeeded++
				}
				wlMu.Unlock()
			}()
		}
	}()

	// Fault timeline: apply actions at their offsets, sweeping
	// invariants between steps.
	actions := append([]Action(nil), sc.Actions...)
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })
	timeline := time.NewTimer(sc.Length)
	defer timeline.Stop()
	sweep := time.NewTicker(500 * time.Millisecond)
	defer sweep.Stop()
	next := 0
	const overdueSlack = 8 * time.Second
	for done := false; !done; {
		var step *time.Timer
		if next < len(actions) {
			wait := time.Until(start.Add(actions[next].At))
			if wait < 0 {
				wait = 0
			}
			step = time.NewTimer(wait)
		} else {
			step = time.NewTimer(time.Hour)
		}
		select {
		case <-timeline.C:
			done = true
		case <-step.C:
			a := actions[next]
			next++
			logf("t=%s action %q", time.Since(start).Round(time.Millisecond), a.Name)
			a.Do(r)
		case <-sweep.C:
			r.checkInvariants(overdueSlack)
		}
		step.Stop()
	}
	close(stop)

	// Heal everything, let membership re-admit and the sweep drain,
	// then probe: a healed cluster must answer queries again.
	logf("t=%s heal + settle", time.Since(start).Round(time.Millisecond))
	cn.Clear()
	time.Sleep(3 * time.Second)
	wl.Wait()

	probeOK, probeTotal := 0, 0
	alive := r.Alive()
	if len(alive) == 0 {
		r.violate("no nodes survived the scenario")
	}
	for i := 0; i < 20 && len(alive) > 0; i++ {
		n := alive[i%len(alive)]
		probeTotal++
		if out, err := n.Query(cat, 1, 4*time.Second); err == nil && out.Done {
			probeOK++
		}
	}
	if probeTotal > 0 && probeOK*5 < probeTotal*4 { // < 80%
		r.violate("post-heal recovery: only %d/%d probe queries succeeded", probeOK, probeTotal)
	}

	// Final invariant sweep on the settled cluster: nothing stuck,
	// nothing leaked.
	r.checkInvariants(overdueSlack)

	r.mu.Lock()
	violations := append([]string(nil), r.violations...)
	r.mu.Unlock()
	wlMu.Lock()
	rep := Report{
		Scenario:   sc.Name,
		Seed:       cfg.Seed,
		Elapsed:    time.Since(start),
		Queries:    issued,
		Succeeded:  succeeded,
		ProbeOK:    probeOK,
		ProbeTotal: probeTotal,
		Violations: violations,
	}
	wlMu.Unlock()
	logf("done in %s: %d/%d workload queries ok, %d/%d probes ok, %d violations",
		rep.Elapsed.Round(time.Millisecond), rep.Succeeded, rep.Queries,
		rep.ProbeOK, rep.ProbeTotal, len(rep.Violations))

	if len(violations) > 0 {
		return rep, fmt.Errorf(
			"scenario %q failed with %d invariant violations (first: %s)\nreplay: go run ./cmd/p2pbench -plan soak-%s -seed %d",
			sc.Name, len(violations), violations[0], sc.Name, cfg.Seed)
	}
	return rep, nil
}
