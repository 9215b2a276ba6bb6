package main

import (
	"p2pshare/internal/livenet"
)

// refSeconds is the measured-phase length the op counts below are
// calibrated for on the 2-core reference box. -seconds scales the
// counts linearly; the phase itself is always a fixed number of ops,
// never a duration.
const refSeconds = 30

// shapeSeed fixes the deployment (catalog, nodes, MaxFair assignment,
// placement, node-local randomness) on every run: -seed varies only the
// op schedule, so two seeds measure the same cluster under two orderings
// of the same request mix.
const shapeSeed = 51

// workload is one frozen set of inputs. Names are permanent: later
// changes are compared against numbers recorded under them.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	shape      livenet.Shape
	content    *livenet.ContentConfig // nil: data plane off
	cacheBytes int64                  // requester cache; -1 disables it
	ringMax    int                    // memnet per-direction ring cap; 0 = default
	nReps      int                    // replicas per non-hot document; 0 = replica.DefaultConfig

	procs   int // GOMAXPROCS of the run; 0 = defaultProcs
	clients int // closed-loop callers, each with its own op list
	origins int // requester pool size, split evenly between clients
	ops     int // measured ops at refSeconds
	warmup  int // warm-up ops at refSeconds (after the link-touch pass)

	// Mix in percent; the three sum to 100.
	queryPct, publishPct, fetchPct int
	zipfS                          float64 // skew over categories (queries) and documents (fetches)

	// workBytes makes load_jain count bytes streamed instead of
	// requests served.
	workBytes bool
	// splitLatency reports the 75th-percentile query as op_p50_ms and the
	// 75th-percentile fetch as op_p95_ms (see endToEnd).
	splitLatency bool
}

// defaultProcs is nproc on the reference box; pinned so a larger machine
// measures the same scheduling regime.
const defaultProcs = 2

var workloads = []workload{
	{
		name:  "query_small",
		why:   "smallest messages, warm links, at most one forwarding hop: per-message cost (codec, batching, memnet, shard dispatch) does the work",
		shape: livenet.Shape{Documents: 400, Categories: 20, Nodes: 200, Clusters: 4, Seed: shapeSeed},
		// Requester cache off: every query crosses engine and transport.
		cacheBytes: -1,
		clients:    2, origins: 16,
		ops: 300000, warmup: 30000,
		queryPct: 100, zipfS: 1.2,
	},
	{
		name:       "query_1k",
		why:        "same call at 1000 nodes: routing depth, table sizes and 4000 goroutines dominate; a forwarding win shows only here",
		shape:      livenet.Shape{Documents: 2000, Categories: 50, Nodes: 1000, Clusters: 10, Seed: shapeSeed},
		cacheBytes: -1,
		clients:    2, origins: 16,
		ops: 90000, warmup: 10000,
		queryPct: 100, zipfS: 1.2,
	},
	{
		name:  "fetch_4mb",
		why:   "4 MB transfers, one at a time on one processor: chunk hashing, synthetic generation, assembly, bulk lane and memnet copies do the work; queries do none",
		shape: livenet.Shape{Documents: 128, Categories: 16, Nodes: 64, Clusters: 4, Seed: shapeSeed},
		// Content cache off (CacheBytes 0): every remote fetch streams
		// the full document.
		content:    &livenet.ContentConfig{},
		cacheBytes: -1,
		ringMax:    512 << 10,
		// One client on one processor. A fetch is a pipeline of a serving
		// and a requesting goroutine; on two processors it keeps both
		// cores busy yet is bound by the hand-offs between them, so any
		// other thread of the box that takes a core for a moment stalls
		// both (ops_per_s spread 11–27 % over ten runs). On one processor
		// the run is bound by its own CPU and the second core absorbs the
		// box's other work (spread 4 %).
		procs:   1,
		clients: 1, origins: 8,
		ops: 2300, warmup: 400,
		fetchPct: 100, zipfS: 1.1,
		workBytes: true,
	},
	{
		name:    "mixed_rw",
		why:     "70/20/10 query/publish/fetch with both caches on: publishes contend as routeMu writer, hits beside misses, cache installs hold heap",
		shape:   livenet.Shape{Documents: 800, Categories: 400, Nodes: 200, Clusters: 8, Seed: shapeSeed, DocBytes: 1 << 20},
		nReps:   5,
		content: &livenet.ContentConfig{CacheBytes: 64 << 20},
		// Room for 10 of its 1 MB documents per node: sized once so the
		// baseline cache_hit_share sits in 0.30–0.45, then frozen.
		cacheBytes: 10 << 20,
		clients:    2, origins: 16,
		ops: 60000, warmup: 10000,
		queryPct: 70, publishPct: 20, fetchPct: 10, zipfS: 1.1,
		splitLatency: true,
	},
}

func (w *workload) gomaxprocs() int {
	if w.procs > 0 {
		return w.procs
	}
	return defaultProcs
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDecl declares one reported metric. bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics a user of the system would see. Every
// workload reports all of them, untraced.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.03},
	{"load_jain", "ratio", "higher", 0.03},
	{"heap_per_node_kb", "KB", "lower", 0.10},
}

// perLayer lists the single-layer metrics of the traced pass, named
// <module>.<metric>. Never gated.
var perLayer = []metricDecl{
	// Set-up, one span per layer call.
	{Name: "model.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.maxfair_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.place_ms", Unit: "ms", Better: "lower"},
	{Name: "livenet.launch_ms", Unit: "ms", Better: "lower"},
	{Name: "livenet.launch_kb_per_node", Unit: "KB", Better: "lower"},
	{Name: "livenet.goroutines_per_node", Unit: "count", Better: "lower"},
	{Name: "driver.warmup_ms", Unit: "ms", Better: "lower"},
	// Caller-side latency per public call, from the op spans.
	{Name: "livenet.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "livenet.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "livenet.publish_p50_us", Unit: "us", Better: "lower"},
	{Name: "livenet.publish_p99_us", Unit: "us", Better: "lower"},
	{Name: "livenet.fetch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "livenet.fetch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "livenet.op_max_ms", Unit: "ms", Better: "lower"},
	{Name: "livenet.slow_ops", Unit: "count", Better: "lower"},
	// Counter deltas over the measured phase.
	{Name: "livenet.sends_per_op", Unit: "count", Better: "lower"},
	{Name: "livenet.batch_mean", Unit: "count", Better: "higher"},
	{Name: "livenet.resends_per_kop", Unit: "count", Better: "lower"},
	{Name: "livenet.inbox_drops", Unit: "count", Better: "lower"},
	{Name: "livenet.queue_drops", Unit: "count", Better: "lower"},
	{Name: "livenet.dials_measured", Unit: "count", Better: "lower"},
	{Name: "livenet.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "livenet.fetch_local_share", Unit: "ratio", Better: "higher"},
	{Name: "livenet.req_forwards_per_fetch", Unit: "count", Better: "lower"},
	{Name: "livenet.stalls_per_kop", Unit: "count", Better: "lower"},
	{Name: "livenet.cache_installs", Unit: "count", Better: "lower"},
	{Name: "livenet.node_load_jain", Unit: "ratio", Better: "higher"},
	// Go runtime; the process is the whole cluster.
	{Name: "livenet.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "livenet.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "livenet.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "livenet.gc_pause_ms", Unit: "ms", Better: "lower"},
	// Cost table: public functions timed in isolation.
	{Name: "wire.query_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.query_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.result_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.result_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.chunk_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.chunk_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.query_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.allocs_per_roundtrip", Unit: "count", Better: "lower"},
	{Name: "wire.est_us_per_op", Unit: "us", Better: "lower"},
	{Name: "memnet.rtt_us", Unit: "us", Better: "lower"},
	{Name: "memnet.bulk_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "memnet.dial_us", Unit: "us", Better: "lower"},
	{Name: "memnet.est_us_per_op", Unit: "us", Better: "lower"},
	{Name: "content.synth_chunk_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "content.build_manifest_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "content.assembly_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "content.store_chunk_ns", Unit: "ns", Better: "lower"},
	{Name: "content.putcached_us", Unit: "us", Better: "lower"},
	{Name: "content.est_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "cache.contains_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.synchist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "timerwheel.every_ns", Unit: "ns", Better: "lower"},
	// Cost table only: no workload runs these until adaptation and
	// membership have a deterministic driver.
	{Name: "core.reassign_ms", Unit: "ms", Better: "lower"},
	{Name: "membership.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "membership.packets_per_tick", Unit: "count", Better: "lower"},
	// The benchmark's own cost and what the table leaves unexplained.
	{Name: "driver.gen_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "driver.wall_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "driver.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.unattributed_us_per_op", Unit: "us", Better: "lower"},
}
