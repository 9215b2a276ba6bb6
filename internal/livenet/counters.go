package livenet

import (
	"reflect"
	"sync/atomic"
)

// counters is a node's monotonically increasing counts, one atomic cell
// each, named once: by its stat tag, its key in Node.Stats, which shows
// it once it has counted something. Counting is a field add from any
// goroutine, the transport's included. Field names are exported only so
// that reflect can hand out the cells.
type counters struct {
	// Queries. Every QueryContext call counts queries_total exactly once
	// at entry and exactly one outcome on exit:
	//
	//	queries_total = queries_ok + query_rejected + query_no_route +
	//	                query_timeouts + query_cancelled + query_closed
	//
	// (pinned by TestQueryAccountingConservation).
	QueriesTotal   atomic.Int64 `stat:"queries_total"`
	QueriesOK      atomic.Int64 `stat:"queries_ok"`
	QueryRejected  atomic.Int64 `stat:"query_rejected"`
	QueryNoRoute   atomic.Int64 `stat:"query_no_route"`
	QueryTimeouts  atomic.Int64 `stat:"query_timeouts"`
	QueryCancelled atomic.Int64 `stat:"query_cancelled"`
	QueryClosed    atomic.Int64 `stat:"query_closed"`
	// The query path's inner events.
	CacheHit        atomic.Int64 `stat:"cache_hit"`
	CacheMiss       atomic.Int64 `stat:"cache_miss"`
	QueryResends    atomic.Int64 `stat:"query_resends"`
	PendingExpired  atomic.Int64 `stat:"pending_expired"`
	QuerySweepSkips atomic.Int64 `stat:"query_sweep_skips"`
	// Result documents outside their pending query's category: counted,
	// never folded.
	QueryForeignDocs atomic.Int64 `stat:"query_foreign_docs"`

	// Fetches. Every Fetch call counts fetches_total exactly once at
	// entry and exactly one outcome on exit:
	//
	//	fetches_total = fetches_ok + fetch_bad_doc + fetch_closed +
	//	                fetch_cancelled + fetch_timeouts + fetch_no_route +
	//	                fetch_exhausted
	FetchesTotal   atomic.Int64 `stat:"fetches_total"`
	FetchesOK      atomic.Int64 `stat:"fetches_ok"`
	FetchBadDoc    atomic.Int64 `stat:"fetch_bad_doc"`
	FetchClosed    atomic.Int64 `stat:"fetch_closed"`
	FetchCancelled atomic.Int64 `stat:"fetch_cancelled"`
	FetchTimeouts  atomic.Int64 `stat:"fetch_timeouts"`
	FetchNoRoute   atomic.Int64 `stat:"fetch_no_route"`
	FetchExhausted atomic.Int64 `stat:"fetch_exhausted"`
	// Of fetches_ok: those the node's own store answered, and the remote
	// ones it then cached.
	FetchLocalHits       atomic.Int64 `stat:"fetch_local_hits"`
	ContentCacheInstalls atomic.Int64 `stat:"content_cache_installs"`

	// Transfers: the serving side, then the downloading side.
	TransferManifestsServed atomic.Int64 `stat:"transfer_manifests_served"`
	TransferReqDropped      atomic.Int64 `stat:"transfer_req_dropped"`
	TransferReqForwards     atomic.Int64 `stat:"transfer_req_forwards"`
	TransferGrantsClamped   atomic.Int64 `stat:"transfer_grants_clamped"`
	TransferBytesOut        atomic.Int64 `stat:"transfer_bytes_out"`
	TransferBytesIn         atomic.Int64 `stat:"transfer_bytes_in"`
	TransferBadManifests    atomic.Int64 `stat:"transfer_bad_manifests"`
	TransferStalls          atomic.Int64 `stat:"transfer_stalls"`
	TransferResumes         atomic.Int64 `stat:"transfer_resumes"`
	TransferSourceMissing   atomic.Int64 `stat:"transfer_source_missing"`
	ChunkHashFail           atomic.Int64 `stat:"chunk_hash_fail"`
	TransferBadChunks       atomic.Int64 `stat:"transfer_bad_chunks"`
	TransferStrayFrames     atomic.Int64 `stat:"transfer_stray_frames"`
	TransferOverruns        atomic.Int64 `stat:"transfer_overruns"`

	// Background pulls: adaptation's moves.
	TransferMoveQueued   atomic.Int64 `stat:"transfer_move_queued"`
	TransferMoveDocs     atomic.Int64 `stat:"transfer_move_docs"`
	TransferMoveFailures atomic.Int64 `stat:"transfer_move_failures"`

	// Adaptation (§6.1).
	AdaptEvaluations  atomic.Int64 `stat:"adapt_evaluations"`
	AdaptMoves        atomic.Int64 `stat:"adapt_moves"`
	AdaptBadMoves     atomic.Int64 `stat:"adapt_bad_moves"`
	AdaptDroppedLoads atomic.Int64 `stat:"adapt_dropped_loads"`
	AdaptStateErrors  atomic.Int64 `stat:"adapt_state_errors"`
	AdaptTickSkips    atomic.Int64 `stat:"adapt_tick_skips"`
	DCRTMoves         atomic.Int64 `stat:"dcrt_moves"`

	// Routing, the address book and membership.
	PublishNoRoute      atomic.Int64 `stat:"publish_no_route"`
	DropNoRoute         atomic.Int64 `stat:"drop_no_route"`
	SendNoAddr          atomic.Int64 `stat:"send_no_addr"`
	BookEvictions       atomic.Int64 `stat:"book_evictions"`
	MembershipEvictions atomic.Int64 `stat:"membership_evictions"`
	MembershipTickSkips atomic.Int64 `stat:"membership_tick_skips"`
	// Liveness rumors the detector refused for an implausible
	// incarnation (membership.Detector.Rejected, mirrored).
	MembershipBadRumors atomic.Int64 `stat:"membership_bad_rumors"`
	AnnounceRetries     atomic.Int64 `stat:"announce_retries"`

	// Transport: the outbound connection pool. Of transport_sends, the
	// frames their sender wrote through to an idle stream itself; the
	// rest went out in a writer's batch. transport_idle_closes counts
	// streams the idle tick closed after WriterIdle without a frame.
	TransportSends             atomic.Int64 `stat:"transport_sends"`
	TransportWriteThrough      atomic.Int64 `stat:"transport_write_through"`
	TransportReuses            atomic.Int64 `stat:"transport_reuses"`
	TransportDials             atomic.Int64 `stat:"transport_dials"`
	TransportDialFailures      atomic.Int64 `stat:"transport_dial_failures"`
	TransportHandshakeFailures atomic.Int64 `stat:"transport_handshake_failures"`
	TransportReconnects        atomic.Int64 `stat:"transport_reconnects"`
	TransportRetries           atomic.Int64 `stat:"transport_retries"`
	TransportSendFailures      atomic.Int64 `stat:"transport_send_failures"`
	TransportDropsQueueFull    atomic.Int64 `stat:"transport_drops_queue_full"`
	TransportDropsBulkFull     atomic.Int64 `stat:"transport_drops_bulk_full"`
	TransportIdleCloses        atomic.Int64 `stat:"transport_idle_closes"`

	// Wire: bytes on the socket both ways, and inbound streams refused.
	WireBytesOut         atomic.Int64 `stat:"wire_bytes_out"`
	WireBytesIn          atomic.Int64 `stat:"wire_bytes_in"`
	WireBadFrames        atomic.Int64 `stat:"wire_bad_frames"`
	WireHandshakeRejects atomic.Int64 `stat:"wire_handshake_rejects"`
}

// counterKeys holds each counters field's stat tag, in field order.
var counterKeys = func() []string {
	t := reflect.TypeFor[counters]()
	keys := make([]string, t.NumField())
	for i := range keys {
		if keys[i] = t.Field(i).Tag.Get("stat"); keys[i] == "" {
			panic("livenet: counters." + t.Field(i).Name + " has no stat tag")
		}
	}
	return keys
}()

// snapshot returns every nonzero count by its key.
func (c *counters) snapshot() map[string]int64 {
	v := reflect.ValueOf(c).Elem()
	out := make(map[string]int64, len(counterKeys))
	for i, key := range counterKeys {
		if n := v.Field(i).Addr().Interface().(*atomic.Int64).Load(); n != 0 {
			out[key] = n
		}
	}
	return out
}
