// Package proto defines the machine protocol between the scenario
// harness (internal/harness) and a p2pnode process running in machine
// mode (p2pnode -harness): newline-delimited JSON, commands on the
// node's stdin, responses on its stdout. The exchange is strictly FIFO —
// the node's command loop handles one command at a time and every
// command gets exactly one response — with a single exception: the very
// first stdout line is an unsolicited Ready announcement carrying the
// node's bound listen address, which the orchestrator needs before it
// can bootstrap the rest of the deployment.
//
// The same structures double as the p2pnode -stats-json output format,
// so scripts scraping a non-harness node parse the identical schema.
package proto

// Op names. A response echoes the op of the command it answers.
const (
	OpReady = "ready" // unsolicited first line of a machine-mode node
	OpLoad  = "load"  // start a workload run in the background
	OpWait  = "wait"  // block until the running load finishes; returns its report
	OpStats = "stats" // snapshot the node's counters and latency percentiles
	OpQuery = "query" // issue one probe query
	OpQuit  = "quit"  // leave the deployment and exit 0
)

// Command is one orchestrator→node instruction.
type Command struct {
	Op    string     `json:"op"`
	Load  *LoadSpec  `json:"load,omitempty"`
	Query *QuerySpec `json:"query,omitempty"`
}

// Response is one node→orchestrator answer.
type Response struct {
	Op    string       `json:"op"`
	OK    bool         `json:"ok"`
	Err   string       `json:"err,omitempty"`
	Ready *ReadyInfo   `json:"ready,omitempty"`
	Load  *LoadReport  `json:"load,omitempty"`
	Stats *StatsReport `json:"stats,omitempty"`
}

// ReadyInfo is the payload of the unsolicited first line.
type ReadyInfo struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	Peers int    `json:"peers"`
}

// LoadSpec parameterizes one act's workload on one node. Counts, not
// durations, size the run: a plan that asks every node for Q queries
// produces the same traffic volume on a fast and a slow machine, which
// keeps count-derived data points comparable across runs.
type LoadSpec struct {
	// Queries is how many queries this node must issue in total.
	Queries int `json:"queries"`
	// Concurrency is how many worker goroutines issue them.
	Concurrency int `json:"concurrency"`
	// M asks for this many distinct documents per query.
	M int `json:"m"`
	// ZipfS, when > 0, replaces catalog-popularity sampling with a
	// rank-based Zipf of this exponent (workload.NewZipfGenerator).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Repeat re-issues a recent query with this probability.
	Repeat float64 `json:"repeat,omitempty"`
	// HotCategory (≥ 0) redirects HotFraction of the queries to one
	// category — the flash-crowd skew. -1 disables.
	HotCategory int     `json:"hot_category"`
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// IntervalMS paces each worker: mean exponential think time between
	// queries (0 = issue back to back). Pacing stretches an act across
	// adaptation epochs so convergence is observable.
	IntervalMS int `json:"interval_ms,omitempty"`
	// TimeoutMS bounds each query.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Fetches, when > 0, runs a bulk workload alongside the queries:
	// this many whole-document fetches (Node.Fetch, manifest-verified)
	// issued by FetchConcurrency extra workers. Documents are sampled by
	// rank-Zipf of exponent FetchZipfS (must be > 1; anything lower
	// means uniform). Requires the node to run with -content.
	Fetches          int     `json:"fetches,omitempty"`
	FetchConcurrency int     `json:"fetch_concurrency,omitempty"`
	FetchZipfS       float64 `json:"fetch_zipf_s,omitempty"`
	// FetchTimeoutMS bounds each fetch (0 = 60s).
	FetchTimeoutMS int `json:"fetch_timeout_ms,omitempty"`
	// FetchHotFraction redirects this fraction of the fetches at the
	// single document FetchHotDoc — the flash-crowd spike on the content
	// plane. 0 disables (and FetchHotDoc is then ignored).
	FetchHotDoc      int     `json:"fetch_hot_doc,omitempty"`
	FetchHotFraction float64 `json:"fetch_hot_fraction,omitempty"`
	// Seed makes the node's workload stream deterministic.
	Seed int64 `json:"seed"`
}

// LoadReport is the outcome of one finished LoadSpec.
type LoadReport struct {
	Issued   int     `json:"issued"`
	OK       int     `json:"ok"`
	Timeouts int     `json:"timeouts"`
	Rejected int     `json:"rejected"`
	NoRoute  int     `json:"no_route"`
	Failed   int     `json:"failed"`
	Seconds  float64 `json:"seconds"`
	// LatencyMS lists the response time of every successful query (the
	// orchestrator merges samples across nodes, so cluster-wide
	// percentiles are exact, not averages of averages). Downsampled
	// deterministically past MaxLatencySamples.
	LatencyMS []float64 `json:"latency_ms"`
	// Bulk-workload outcome (LoadSpec.Fetches > 0). FetchBytes counts
	// only bytes of completed, manifest-verified fetches;
	// FetchLatencyMS is one whole-document completion time per fetch.
	FetchOK        int       `json:"fetch_ok,omitempty"`
	FetchFailed    int       `json:"fetch_failed,omitempty"`
	FetchBytes     int64     `json:"fetch_bytes,omitempty"`
	FetchLatencyMS []float64 `json:"fetch_latency_ms,omitempty"`
}

// MaxLatencySamples bounds one report's sample payload; a longer run is
// downsampled every-kth so the report stays a few hundred KB at worst.
const MaxLatencySamples = 20000

// QuerySpec is one probe query.
type QuerySpec struct {
	Category  int `json:"category"`
	M         int `json:"m"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// StatsReport snapshots one node. Counters is Node.Stats() verbatim,
// the membership and fairness gauges included. Query latency is the
// caller's to time: LoadReport carries the samples of a harness load.
type StatsReport struct {
	NodeID   int              `json:"node_id"`
	Counters map[string]int64 `json:"counters"`
	// LoadRunning reports an OpLoad still in flight — the orchestrator's
	// convergence poll uses it to stop polling once an act's load drains.
	LoadRunning bool `json:"load_running,omitempty"`
}
