package livenet

import (
	"context"
	"time"

	"p2pshare/internal/timerwheel"
)

// nodeIO is the node's one seam to the world outside its own state:
// every frame it sends, clock it reads and timer it sets. Launch and
// StartNode give a node a wireIO; a test may drive it on a virtual clock
// and an in-memory network instead. The transport's own stream
// deadlines, idle tick and backoff stay below the seam.
type nodeIO interface {
	// now reads the clock.
	now() time.Time
	// every runs f every period, the first time one period from now,
	// until stop is called. f must not block.
	every(period time.Duration, f func(now time.Time)) (stop func())
	// after returns a channel that receives once, d from now, unless
	// stop is called first.
	after(d time.Duration) (c <-chan time.Time, stop func() bool)
	// withTimeout derives a context that expires d from now.
	withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
	// send hands one frame to the network on lane l. A frame without an
	// address (route counted it) is dropped.
	send(f outFrame, l lane)
}

// lane says how a frame leaves the node, which decides which goroutine
// may wait on the peer. It is the one rule every send site follows.
type lane uint8

const (
	// lanePost writes the frame through to an idle stream on the calling
	// goroutine, and may wait on the peer's socket buffer for at most
	// writeTimeout. Only a goroutine that holds no node lock and is not
	// on the timer wheel posts: an API caller, a fetch caller, a reader
	// answering or forwarding a query after releasing routeMu.RLock.
	lanePost lane = iota
	// laneQueue hands the frame to the peer's writer goroutine and never
	// waits: every frame sent under routeMu or queries.mu, from the timer
	// wheel, or by a reader replying to a content frame.
	laneQueue
	// laneBulk queues a document chunk on the same stream, but the writer
	// lets it into a batch only when no protocol frame is waiting.
	laneBulk
)

// wireIO is the production nodeIO: the node's transport, the wall
// clock and the process's shared timer wheel.
type wireIO struct{ tr *transport }

func (wireIO) now() time.Time { return time.Now() }

func (wireIO) every(period time.Duration, f func(now time.Time)) func() {
	return timerwheel.Default().Every(period, f)
}

func (wireIO) after(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

func (wireIO) withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

func (w wireIO) send(f outFrame, l lane) {
	if f.addr != "" {
		w.tr.send(f.to, f.addr, envelope{From: w.tr.from, Msg: f.msg}, l)
	}
}
