package main

import (
	"context"
	"net"
	"testing"

	"p2pshare/internal/harness/proto"
	"p2pshare/internal/livenet"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
)

// TestMachineLoadAccounting: every issued query and fetch of a LoadSpec
// lands in exactly one outcome bucket, every successful query leaves one
// latency sample, and a context that is already done issues nothing. The
// deployment is a small in-process cluster on a memnet fabric with the
// content plane on, so one spec mixes queries and fetches.
func TestMachineLoadAccounting(t *testing.T) {
	sh := livenet.Shape{Documents: 48, Categories: 6, Nodes: 8, Clusters: 2, Seed: 5, DocBytes: 64 << 10}
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	nw := memnet.New()
	c, err := livenet.Launch(inst, assign, place, livenet.Options{
		Seed:    sh.Seed,
		Content: &livenet.ContentConfig{},
		Hooks: livenet.NetHooks{
			Listen: func(_ model.NodeID, addr string) (net.Listener, error) { return nw.Listen(addr) },
			Dial:   func(_ model.NodeID, addr string) (net.Conn, error) { return nw.Dial(addr) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := proto.LoadSpec{
		Queries: 40, Concurrency: 4, M: 2, HotCategory: -1, TimeoutMS: 5000,
		Fetches: 6, FetchConcurrency: 2, FetchZipfS: 1.2, Seed: 7,
	}
	rep, err := machineLoad(context.Background(), c.Nodes[3], spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Issued != spec.Queries {
		t.Errorf("issued %d queries, want %d", rep.Issued, spec.Queries)
	}
	if sum := rep.OK + rep.Timeouts + rep.Rejected + rep.NoRoute + rep.Failed; sum != rep.Issued {
		t.Errorf("outcomes sum to %d, issued %d: %+v", sum, rep.Issued, rep)
	}
	if rep.FetchOK+rep.FetchFailed != spec.Fetches {
		t.Errorf("fetch outcomes %d ok + %d failed, want %d", rep.FetchOK, rep.FetchFailed, spec.Fetches)
	}
	if len(rep.LatencyMS) != rep.OK {
		t.Errorf("%d latency samples for %d ok queries", len(rep.LatencyMS), rep.OK)
	}
	if rep.OK == 0 || rep.FetchOK == 0 {
		t.Errorf("nothing succeeded on a healthy fabric: %d ok queries, %d ok fetches", rep.OK, rep.FetchOK)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err = machineLoad(ctx, c.Nodes[3], spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Issued != 0 || rep.FetchOK+rep.FetchFailed != 0 {
		t.Errorf("cancelled load issued %d queries and %d fetches, want none",
			rep.Issued, rep.FetchOK+rep.FetchFailed)
	}
}
