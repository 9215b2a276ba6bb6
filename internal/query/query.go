// Package query defines the one result type and the sentinel errors
// shared by every query surface of the system. The simulated facade
// (package p2pshare) and the live TCP engine (internal/livenet) used to
// return near-identical but distinct structs, forcing callers that drive
// both to translate between them; now both return query.Result and fail
// with the same errors, matchable with errors.Is.
package query

import (
	"errors"
	"time"

	"p2pshare/internal/catalog"
)

// Result reports one query's outcome, whether it ran on the simulator or
// over live TCP.
type Result struct {
	// Done is true when the query gathered what it could before the
	// deadline: on the live engine min(m, documents placed in the
	// category) distinct documents, on the simulator m of them.
	Done bool
	// Results is the number of distinct matching documents returned.
	Results int
	// Hops is the overlay forwarding distance of the farthest
	// contributing result (0 for an answer served from the requester's
	// own cache).
	Hops int
	// ResponseTime is the query latency: simulated clock on the
	// simulator, wall clock on the live engine.
	ResponseTime time.Duration
	// Docs lists the distinct documents received. The live engine always
	// fills it; the simulator facade leaves it nil and reports only the
	// count.
	Docs []catalog.DocID
}

// Sentinel errors returned by both the facade and the live engine.
var (
	// ErrNoRoute reports a category with no DCRT entry or no reachable
	// members in its serving cluster — the caller gets an explicit error
	// instead of the load being silently dumped on cluster 0.
	ErrNoRoute = errors.New("p2pshare: no route to category cluster")
	// ErrTimeout reports a query that did not complete before its
	// deadline; the partial outcome accompanies it.
	ErrTimeout = errors.New("p2pshare: query timed out")
	// ErrClosed reports an API call on a node or system that has shut
	// down.
	ErrClosed = errors.New("p2pshare: node closed")
	// ErrOverloaded reports a query rejected by admission control: the
	// node already has its maximum number of in-flight queries.
	ErrOverloaded = errors.New("p2pshare: too many in-flight queries")
)
