package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/content"
	"p2pshare/internal/core"
	"p2pshare/internal/livenet"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/replica"
)

const (
	queryTimeout = 10 * time.Second
	fetchTimeout = 20 * time.Second
	slowOp       = time.Second
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// docRef is the ground truth a fetched document is checked against,
// computed in set-up from content.SyntheticDoc.
type docRef struct {
	size int
	crc  uint32
	sha  [sha256.Size]byte
}

// runner holds one workload run: the deployment, its schedule and the
// live cluster.
type runner struct {
	w      *workload
	inst   *model.Instance
	assign []model.ClusterID
	mem    *model.Membership
	place  *replica.Placement
	sched  *schedule
	refs   map[int32]docRef
	c      *livenet.Cluster
	tr     *tracer // nil unless -trace
}

// buildModel reproduces livenet.Shape.Build step by step through the
// same public functions, so each layer gets its own span.
func buildModel(sh livenet.Shape, nReps int, tr *tracer) (*model.Instance, []model.ClusterID, *model.Membership, *replica.Placement, error) {
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = sh.Documents
	cfg.Catalog.NumCats = sh.Categories
	cfg.NumNodes = sh.Nodes
	cfg.NumClusters = sh.Clusters
	cfg.Seed = sh.Seed
	if sh.DocBytes > 0 {
		cfg.Catalog.DocSize = sh.DocBytes
	}
	end := tr.begin("model.generate")
	inst, err := model.Generate(cfg)
	end()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("model.Generate: %w", err)
	}
	end = tr.begin("core.maxfair")
	res, err := core.MaxFair(inst, core.Options{})
	end()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core.MaxFair: %w", err)
	}
	mem, err := model.NewMembership(inst, res.Assignment)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("model.NewMembership: %w", err)
	}
	end = tr.begin("replica.place")
	rcfg := replica.DefaultConfig()
	if nReps > 0 {
		rcfg.NReps = nReps
	}
	place, err := replica.Place(inst, res.Assignment, mem, rcfg)
	end()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("replica.Place: %w", err)
	}
	return inst, res.Assignment, mem, place, nil
}

// docRefs computes the ground truth for every document the schedule
// fetches.
func docRefs(inst *model.Instance, s *schedule) map[int32]docRef {
	refs := make(map[int32]docRef)
	for _, phase := range [][][]op{s.warm, s.measured} {
		for _, ops := range phase {
			for _, o := range ops {
				if o.kind != opFetch {
					continue
				}
				if _, ok := refs[o.target]; ok {
					continue
				}
				d := inst.Catalog.Doc(catalog.DocID(o.target))
				b := content.SyntheticDoc(d.ID, d.Size)
				refs[o.target] = docRef{size: len(b), crc: crc32.Checksum(b, crcTable), sha: sha256.Sum256(b)}
			}
		}
	}
	return refs
}

func (r *runner) launch() error {
	nw := memnet.NewSized(r.w.ringMax)
	var err error
	r.c, err = livenet.Launch(r.inst, r.assign, r.place, livenet.Options{
		Seed: shapeSeed,
		Hooks: livenet.NetHooks{
			Listen: func(_ model.NodeID, addr string) (net.Listener, error) { return nw.Listen(addr) },
			Dial:   func(_ model.NodeID, addr string) (net.Conn, error) { return nw.Dial(addr) },
		},
		CacheBytes: r.w.cacheBytes,
		WriterIdle: -1, // writers never park: parking respawns them mid-run
		Content:    r.w.content,
		// Membership and Adaptation stay nil: both off.
	})
	return err
}

// failure names one way an op can fail; "" is success.
func failure(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, livenet.ErrNoContent):
		return "no_content"
	case errors.Is(err, livenet.ErrTimeout):
		return "timeout"
	case errors.Is(err, livenet.ErrNoRoute):
		return "no_route"
	case errors.Is(err, livenet.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, livenet.ErrClosed):
		return "closed"
	default:
		return "other_error"
	}
}

// exec issues one op, times the public call alone, then checks what it
// returned. strict adds the SHA-256 check to a fetch (warm-up, untimed);
// the measured phase checks length and CRC-32C, which cost under 3 % of a
// fetch instead of doubling it.
func (r *runner) exec(o op, strict bool) (time.Duration, string) {
	node := r.c.Nodes[r.sched.pool[o.origin]]
	switch o.kind {
	case opQuery:
		cat := catalog.CategoryID(o.target)
		ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
		t0 := time.Now()
		res, err := node.QueryContext(ctx, cat, 1)
		lat := time.Since(t0)
		cancel()
		if err != nil {
			return lat, failure(err)
		}
		if len(res.Docs) == 0 {
			return lat, "empty_result"
		}
		for _, d := range res.Docs {
			doc := r.inst.Catalog.Doc(d)
			if doc == nil || !slices.Contains(doc.Categories, cat) {
				return lat, "wrong_category"
			}
		}
		return lat, ""
	case opPublish:
		t0 := time.Now()
		err := node.Publish(catalog.DocID(o.target))
		return time.Since(t0), failure(err)
	default:
		ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
		t0 := time.Now()
		b, err := node.Fetch(ctx, catalog.DocID(o.target))
		lat := time.Since(t0)
		cancel()
		if err != nil {
			return lat, failure(err)
		}
		ref := r.refs[o.target]
		if len(b) != ref.size || crc32.Checksum(b, crcTable) != ref.crc {
			return lat, "bad_bytes"
		}
		if strict {
			if sum := sha256.Sum256(b); !bytes.Equal(sum[:], ref.sha[:]) {
				return lat, "bad_bytes"
			}
		}
		return lat, ""
	}
}

// clientLog is what one client recorded over one phase; all slices are
// allocated before the cluster is launched, so they stay out of the
// heap it is charged with.
type clientLog struct {
	lat    []time.Duration
	end    []time.Time
	failed []bool
	fails  map[string]int
}

// phase is one timed pass over per-client op lists.
type phase struct {
	ops    [][]op
	logs   []clientLog
	start  time.Time
	wall   time.Duration
	cpu    time.Duration // user+sys of the whole process
	cut    int           // ops left undone when the time limit struck
	before counters
	after  counters
}

func newPhase(ops [][]op) *phase {
	p := &phase{ops: ops, logs: make([]clientLog, len(ops))}
	for c, list := range ops {
		p.logs[c] = clientLog{
			lat:    make([]time.Duration, len(list)),
			end:    make([]time.Time, len(list)),
			failed: make([]bool, len(list)),
			fails:  make(map[string]int),
		}
	}
	return p
}

// runClients executes per-client op lists: one goroutine per client,
// each a closed loop over its own list. A failed op is reported with the
// time it took and never retried. record runs on the client's goroutine.
// A client starts no op after deadline (zero: none); the return value is
// how many ops each client finished.
func (r *runner) runClients(ops [][]op, strict bool, deadline time.Time, record func(c, i int, o op, lat time.Duration, end time.Time, fail string)) []int {
	done := make([]int, len(ops))
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, o := range ops[c] {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				lat, fail := r.exec(o, strict)
				record(c, i, o, lat, time.Now(), fail)
				done[c] = i + 1
			}
		}(c)
	}
	wg.Wait()
	return done
}

// presizeHeap ends the warm-up by touching, once, the memory the heap
// will grow into before its next collection: as much again as is live.
// The collector keeps the freed pages mapped, so the measured phase
// allocates from resident memory. Without this a 20 s phase on 1 000
// nodes takes a million first-touch page faults, whose cost belongs to
// the hypervisor, not the program, and moved cpu_ms_per_op by 4 %.
func presizeHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const block = 32 << 20
	var touched [][]byte
	for need := int64(2*ms.HeapAlloc) - int64(ms.HeapSys-ms.HeapReleased); need > 0; need -= block {
		b := make([]byte, block)
		for i := 0; i < len(b); i += 4096 {
			b[i] = 1
		}
		touched = append(touched, b)
	}
	runtime.KeepAlive(touched)
}

// counters is one snapshot of everything read as a before/after delta.
type counters struct {
	stats      map[string]int64 // cluster-wide sums
	served     []float64        // per node
	bytesOut   []float64        // per node transfer_bytes_out
	batchN     int              // flushes, all nodes
	batchSum   float64          // envelopes in them
	mem        runtime.MemStats // after a GC: HeapAlloc is the live heap
	goroutines int
}

// snapshot collects garbage and reads the counters.
func (r *runner) snapshot() counters {
	var s counters
	runtime.GC()
	runtime.ReadMemStats(&s.mem)
	s.goroutines = runtime.NumGoroutine()
	if r.c == nil {
		return s
	}
	n := len(r.c.Nodes)
	s.stats = make(map[string]int64)
	s.served = make([]float64, n)
	s.bytesOut = make([]float64, n)
	for k, node := range r.c.Nodes {
		st := node.Stats()
		for key, v := range st {
			s.stats[key] += v
		}
		s.served[k] = float64(st["served"])
		s.bytesOut[k] = float64(st["transfer_bytes_out"])
		b := node.BatchSizes()
		s.batchN += b.Count()
		s.batchSum += b.Sum()
	}
	return s
}

// measure runs p between two snapshots; wall and CPU time cover the ops
// alone, not the snapshots' GC and stats sweep. spanParent non-zero
// records one span per op under it. The phase is a fixed list of ops, but
// a box that is ten times slower for some minutes (seen once: 400 s for a
// 60 s phase, a quarter of it reported as steal) must not hold the run
// past its caller's patience: after limit no further op starts, and the
// phase is what was done by then.
func (r *runner) measure(p *phase, spanParent int, limit time.Duration) {
	p.before = r.snapshot()
	cpu := processCPU()
	p.start = time.Now()
	done := r.runClients(p.ops, false, p.start.Add(limit), func(c, i int, o op, lat time.Duration, end time.Time, fail string) {
		log := &p.logs[c]
		log.lat[i], log.end[i] = lat, end
		if fail != "" {
			log.failed[i] = true
			log.fails[fail]++
		}
		if spanParent != 0 {
			r.tr.op(c, spanParent, o.kind, end.Add(-lat), end)
		}
	})
	p.wall = time.Since(p.start)
	p.cpu = processCPU() - cpu
	p.after = r.snapshot()
	for c, n := range done {
		p.cut += len(p.ops[c]) - n
		p.ops[c] = p.ops[c][:n]
		l := &p.logs[c]
		l.lat, l.end, l.failed = l.lat[:n], l.end[:n], l.failed[:n]
	}
}

// processCPU is the user+system time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta is a cluster-wide counter's growth over the phase.
func (p *phase) delta(key string) float64 {
	return float64(p.after.stats[key] - p.before.stats[key])
}

func (p *phase) attempted() int {
	n := 0
	for _, l := range p.ops {
		n += len(l)
	}
	return n
}

func (p *phase) failedOps() (int, map[string]int) {
	n, by := 0, make(map[string]int)
	for _, l := range p.logs {
		for k, v := range l.fails {
			by[k] += v
			n += v
		}
	}
	return n, by
}

// issued counts the phase's ops of one kind.
func (p *phase) issued(k opKind) int {
	n := 0
	for _, l := range p.ops {
		for _, o := range l {
			if o.kind == k {
				n++
			}
		}
	}
	return n
}

// latencies returns the sorted caller-side latencies of one kind, or of
// all ops when k is numKinds. Failed ops are included at the time they
// took.
func (p *phase) latencies(k opKind) []time.Duration {
	var out []time.Duration
	for c, l := range p.ops {
		for i, o := range l {
			if k == numKinds || o.kind == k {
				out = append(out, p.logs[c].lat[i])
			}
		}
	}
	slices.Sort(out)
	return out
}
