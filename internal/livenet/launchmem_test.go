package livenet

import (
	"fmt"
	"runtime"
	"testing"

	"p2pshare/internal/memnet"
)

// launchHeapPerNode launches sh over memnet with nothing running but
// the nodes themselves and returns the live heap the launch added, per
// node, in bytes: what the nodes hold and what their deployment shares,
// spread over them.
func launchHeapPerNode(t testing.TB, sh Shape) float64 {
	t.Helper()
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := Launch(inst, assign, place, Options{Seed: sh.Seed, Hooks: memnetHooks(memnet.New(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	c.Close()
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(sh.Nodes)
}

// TestLaunchHeapFlatInCategories pins what a launched node costs
// against the deployment's category count: every node's DCRT reads one
// shared launch base and keeps only the rows it has seen move, so 200
// nodes at 400 categories hold less than 1 KB per node more than at 20.
// A private full DCRT per node costs ≈ 12.7 KB more.
func TestLaunchHeapFlatInCategories(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the live heap")
	}
	const budget = 1 << 10
	// Two documents per node: a node's held-document index is one small
	// map group at either count, so the difference is the tables a
	// category count sizes. The first launch is a warm-up: it pays the
	// runtime's one-time costs (goroutine descriptors, memnet's pools).
	shape := func(cats int) Shape {
		return Shape{Documents: 400, Categories: cats, Nodes: 200, Clusters: 10, Seed: 5}
	}
	launchHeapPerNode(t, shape(20))
	few := launchHeapPerNode(t, shape(20))
	many := launchHeapPerNode(t, shape(400))
	t.Logf("live heap per launched node: %.2f KB at 20 categories, %.2f KB at 400", few/1024, many/1024)
	if many-few >= budget {
		t.Fatalf("400 categories cost %.2f KB per node more than 20, budget %.2f KB", (many-few)/1024, float64(budget)/1024)
	}
}

// BenchmarkLaunch launches 1 000 nodes over memnet at 50 and at 500
// categories and reports the live heap each launched node adds
// (KB/node): the figure TestLaunchHeapFlatInCategories pins, at the
// scale of the benchmark's query_1k workload.
func BenchmarkLaunch(b *testing.B) {
	for _, cats := range []int{50, 500} {
		b.Run(fmt.Sprintf("cats=%d", cats), func(b *testing.B) {
			sh := Shape{Documents: 2000, Categories: cats, Nodes: 1000, Clusters: 10, Seed: 5}
			var perNode float64
			for range b.N {
				perNode = launchHeapPerNode(b, sh)
			}
			b.ReportMetric(perNode/1024, "KB/node")
		})
	}
}
