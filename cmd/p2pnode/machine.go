// Machine mode: p2pnode -harness turns the process into one
// orchestrated peer of a harness plan (internal/harness). The contract
// is internal/harness/proto — JSON commands on stdin, one JSON response
// per command on stdout, plus the unsolicited ready line first. stdout
// carries protocol only; anything meant for humans goes to stderr.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/harness/proto"
	"p2pshare/internal/livenet"
	"p2pshare/internal/workload"
)

// statsReport snapshots the node in the machine-protocol schema (also
// the -stats-json output format).
func statsReport(node *livenet.Node) *proto.StatsReport {
	return &proto.StatsReport{NodeID: int(node.ID()), Counters: node.Stats()}
}

// printStatsJSON is the -stats-json replacement for printStats: one
// machine-readable line instead of the human block.
func printStatsJSON(node *livenet.Node) {
	json.NewEncoder(os.Stdout).Encode(proto.Response{
		Op: proto.OpStats, OK: true, Stats: statsReport(node),
	})
}

// machineLoad runs one LoadSpec to completion: the harness starts it on
// a background goroutine (OpWait collects the report), and -loadgen
// runs it in the foreground. Once ctx is done no worker issues another
// query or fetch; one already in flight finishes under its own deadline,
// so every issued operation has a real outcome in the report.
func machineLoad(ctx context.Context, node *livenet.Node, spec proto.LoadSpec) (*proto.LoadReport, error) {
	var gen *workload.Generator
	var err error
	if spec.ZipfS > 0 {
		gen, err = workload.NewZipfGenerator(node.Instance(), spec.M, spec.ZipfS, spec.Seed)
	} else {
		gen, err = workload.NewGenerator(node.Instance(), spec.M, spec.Seed)
	}
	if err != nil {
		return nil, err
	}
	if spec.Repeat > 0 {
		gen.WithRepeat(spec.Repeat, 32)
	}
	var genMu sync.Mutex
	timeout := 5 * time.Second
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	workers := spec.Concurrency
	if workers < 1 {
		workers = 1
	}

	rep := &proto.LoadReport{}
	var repMu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup

	// The bulk workload rides alongside the queries on its own workers:
	// whole-document fetches with rank-Zipf document sampling. The two
	// streams sharing every link is the point — the harness measures
	// query latency while the bulk lane is saturated.
	if spec.Fetches > 0 {
		fworkers := spec.FetchConcurrency
		if fworkers < 1 {
			fworkers = 1
		}
		ftimeout := 60 * time.Second
		if spec.FetchTimeoutMS > 0 {
			ftimeout = time.Duration(spec.FetchTimeoutMS) * time.Millisecond
		}
		docs := node.Instance().Catalog.Docs
		for w := 0; w < fworkers; w++ {
			quota := spec.Fetches / fworkers
			if w < spec.Fetches%fworkers {
				quota++
			}
			wg.Add(1)
			go func(w, quota int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(spec.Seed + 104729 + int64(w)*7919))
				var zipf *rand.Zipf
				if spec.FetchZipfS > 1 {
					zipf = rand.NewZipf(rng, spec.FetchZipfS, 1, uint64(len(docs)-1))
				}
				for i := 0; i < quota && ctx.Err() == nil; i++ {
					var d catalog.DocID
					switch {
					case spec.FetchHotFraction > 0 && rng.Float64() < spec.FetchHotFraction:
						// The flash-crowd spike: the whole fleet chases
						// one document.
						d = docs[spec.FetchHotDoc%len(docs)].ID
					case zipf != nil:
						d = docs[zipf.Uint64()].ID
					default:
						d = docs[rng.Intn(len(docs))].ID
					}
					fctx, cancel := context.WithTimeout(context.Background(), ftimeout)
					t0 := time.Now()
					data, err := node.Fetch(fctx, d)
					cancel()
					repMu.Lock()
					if err != nil {
						rep.FetchFailed++
					} else {
						rep.FetchOK++
						rep.FetchBytes += int64(len(data))
						rep.FetchLatencyMS = append(rep.FetchLatencyMS, float64(time.Since(t0))/float64(time.Millisecond))
					}
					repMu.Unlock()
				}
			}(w, quota)
		}
	}

	for w := 0; w < workers; w++ {
		// Each worker gets its own count slice and pacing/skew rng so the
		// stream is deterministic regardless of scheduling.
		quota := spec.Queries / workers
		if w < spec.Queries%workers {
			quota++
		}
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(spec.Seed + int64(w)*7919))
			for i := 0; i < quota; i++ {
				if spec.IntervalMS > 0 {
					time.Sleep(time.Duration(rng.ExpFloat64() * float64(spec.IntervalMS) * float64(time.Millisecond)))
				}
				if ctx.Err() != nil {
					return
				}
				genMu.Lock()
				q := gen.Next()
				genMu.Unlock()
				cat := q.Category
				if spec.HotCategory >= 0 && rng.Float64() < spec.HotFraction {
					cat = catalog.CategoryID(spec.HotCategory)
				}
				qctx, cancel := context.WithTimeout(context.Background(), timeout)
				out, err := node.QueryContext(qctx, cat, q.M)
				cancel()
				repMu.Lock()
				rep.Issued++
				switch {
				case err == nil:
					rep.OK++
					rep.LatencyMS = append(rep.LatencyMS, float64(out.ResponseTime)/float64(time.Millisecond))
				case errors.Is(err, livenet.ErrTimeout):
					rep.Timeouts++
				case errors.Is(err, livenet.ErrOverloaded):
					rep.Rejected++
				case errors.Is(err, livenet.ErrNoRoute):
					rep.NoRoute++
				default:
					rep.Failed++
				}
				repMu.Unlock()
			}
		}(w, quota)
	}
	wg.Wait()
	rep.Seconds = time.Since(start).Seconds()
	if len(rep.LatencyMS) > proto.MaxLatencySamples {
		// Deterministic every-kth downsample keeps the payload bounded
		// without biasing the distribution.
		k := (len(rep.LatencyMS) + proto.MaxLatencySamples - 1) / proto.MaxLatencySamples
		kept := rep.LatencyMS[:0]
		for i := 0; i < len(rep.LatencyMS); i += k {
			kept = append(kept, rep.LatencyMS[i])
		}
		rep.LatencyMS = kept
	}
	return rep, nil
}

// runMachine is the harness-mode main: announce readiness, then serve
// the command loop until quit/EOF.
func runMachine(node *livenet.Node) error {
	enc := json.NewEncoder(os.Stdout)
	reply := func(r proto.Response) {
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "p2pnode: machine reply:", err)
		}
	}
	fail := func(op string, err error) {
		reply(proto.Response{Op: op, Err: err.Error()})
	}

	reply(proto.Response{Op: proto.OpReady, OK: true, Ready: &proto.ReadyInfo{
		ID: int(node.ID()), Addr: node.Addr(), Peers: node.KnownPeers(),
	}})

	// One background load at a time: OpLoad starts it, OpWait joins it.
	var loadDone chan struct{}
	var loadRep *proto.LoadReport
	var loadErr error

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var cmd proto.Command
		if err := json.Unmarshal(line, &cmd); err != nil {
			fail("?", fmt.Errorf("bad command: %w", err))
			continue
		}
		switch cmd.Op {
		case proto.OpLoad:
			if cmd.Load == nil {
				fail(cmd.Op, errors.New("load: missing spec"))
				continue
			}
			if loadDone != nil {
				fail(cmd.Op, errors.New("load: already running"))
				continue
			}
			spec := *cmd.Load
			loadDone = make(chan struct{})
			go func() {
				defer close(loadDone)
				loadRep, loadErr = machineLoad(context.Background(), node, spec)
			}()
			reply(proto.Response{Op: cmd.Op, OK: true})
		case proto.OpWait:
			if loadDone == nil {
				fail(cmd.Op, errors.New("wait: no load running"))
				continue
			}
			<-loadDone
			rep, err := loadRep, loadErr
			loadDone, loadRep, loadErr = nil, nil, nil
			if err != nil {
				fail(cmd.Op, err)
				continue
			}
			reply(proto.Response{Op: cmd.Op, OK: true, Load: rep})
		case proto.OpStats:
			rep := statsReport(node)
			if loadDone != nil {
				select {
				case <-loadDone:
				default:
					rep.LoadRunning = true
				}
			}
			reply(proto.Response{Op: cmd.Op, OK: true, Stats: rep})
		case proto.OpQuery:
			if cmd.Query == nil {
				fail(cmd.Op, errors.New("query: missing spec"))
				continue
			}
			timeout := 5 * time.Second
			if cmd.Query.TimeoutMS > 0 {
				timeout = time.Duration(cmd.Query.TimeoutMS) * time.Millisecond
			}
			_, err := node.Query(catalog.CategoryID(cmd.Query.Category), cmd.Query.M, timeout)
			if err != nil {
				fail(cmd.Op, err)
				continue
			}
			reply(proto.Response{Op: cmd.Op, OK: true})
		case proto.OpQuit:
			reply(proto.Response{Op: cmd.Op, OK: true})
			return nil
		default:
			fail(cmd.Op, fmt.Errorf("unknown op %q", cmd.Op))
		}
	}
	return sc.Err()
}
