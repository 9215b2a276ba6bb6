package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"p2pshare/internal/cache"
	"p2pshare/internal/catalog"
	"p2pshare/internal/content"
	"p2pshare/internal/core"
	"p2pshare/internal/membership"
	"p2pshare/internal/memnet"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/overlay"
	"p2pshare/internal/timerwheel"
	"p2pshare/internal/wire"
)

// perLayer fills in the 61 single-layer metrics of the traced pass from
// three sources, all outside the program: the spans this package
// recorded, counter deltas over the measured phase, and the cost table.
func (r *runner) perLayer(p, reference *phase, base, booted counters, genNs float64, res *result) {
	m := res.metrics
	nodes := float64(len(r.inst.Nodes))
	ops := float64(p.attempted())
	perOp := func(key string) float64 { return p.delta(key) / ops }
	share := func(part, of float64) float64 { // 0 when the workload has none of them
		if of == 0 {
			return 0
		}
		return part / of
	}

	// (a) spans.
	for _, name := range []string{"model.generate", "core.maxfair", "replica.place", "livenet.launch"} {
		m[name+"_ms"] = r.tr.ms(name)
	}
	m["driver.warmup_ms"] = r.tr.ms("driver.warmup")
	m["livenet.launch_kb_per_node"] = (float64(booted.mem.HeapAlloc) - float64(base.mem.HeapAlloc)) / 1024 / nodes
	m["livenet.goroutines_per_node"] = float64(booted.goroutines-base.goroutines) / nodes

	q, pub, f, all := p.latencies(opQuery), p.latencies(opPublish), p.latencies(opFetch), p.latencies(numKinds)
	m["livenet.query_p50_us"], m["livenet.query_p99_us"] = us(percentile(q, 0.5)), us(percentile(q, 0.99))
	m["livenet.publish_p50_us"], m["livenet.publish_p99_us"] = us(percentile(pub, 0.5)), us(percentile(pub, 0.99))
	m["livenet.fetch_p50_ms"], m["livenet.fetch_p99_ms"] = ms(percentile(f, 0.5)), ms(percentile(f, 0.99))
	m["livenet.op_max_ms"] = ms(percentile(all, 1))
	m["livenet.slow_ops"] = float64(len(all) - sort.Search(len(all), func(i int) bool { return all[i] >= slowOp }))

	// (b) counts.
	sends := perOp("transport_sends")
	m["livenet.sends_per_op"] = sends
	flushes := float64(p.after.batchN - p.before.batchN)
	m["livenet.batch_mean"] = share(p.after.batchSum-p.before.batchSum, flushes)
	m["livenet.resends_per_kop"] = 1000 * perOp("query_resends")
	m["livenet.inbox_drops"] = p.delta("shard_inbox_drops")
	m["livenet.queue_drops"] = p.delta("transport_drops_queue_full") + p.delta("transport_drops_bulk_full")
	m["livenet.dials_measured"] = p.delta("transport_dials")
	m["livenet.cache_hit_share"] = share(p.delta("cache_hit"), float64(p.issued(opQuery)))
	m["livenet.fetch_local_share"] = share(p.delta("fetch_local_hits"), float64(p.issued(opFetch)))
	m["livenet.req_forwards_per_fetch"] = share(p.delta("transfer_req_forwards"), float64(p.issued(opFetch)))
	m["livenet.stalls_per_kop"] = 1000 * perOp("transfer_stalls")
	m["livenet.cache_installs"] = p.delta("content_cache_installs")

	m["livenet.allocs_per_op"] = float64(p.after.mem.Mallocs-p.before.mem.Mallocs) / ops
	m["livenet.alloc_kb_per_op"] = float64(p.after.mem.TotalAlloc-p.before.mem.TotalAlloc) / 1024 / ops
	m["livenet.gc_cycles"] = float64(p.after.mem.NumGC - p.before.mem.NumGC)
	m["livenet.gc_pause_ms"] = float64(p.after.mem.PauseTotalNs-p.before.mem.PauseTotalNs) / 1e6

	// (c) cost table, then each layer's estimated share of one op: the
	// isolated cost of its public functions times how often the counts
	// say the op used them.
	docBytes := int(r.inst.Catalog.Docs[0].Size)
	for k, v := range costTable(docBytes) {
		m[k] = v
	}
	chunks := perOp("transfer_bytes_out") / content.DefaultChunkSize
	results := 0.0
	for k := range p.after.served {
		results += p.after.served[k] - p.before.served[k]
	}
	results /= ops
	small := sends - chunks - results // query, publish and transfer control frames
	if small < 0 {
		small = 0
	}
	m["wire.est_us_per_op"] = (small*(m["wire.query_encode_ns"]+m["wire.query_decode_ns"]) +
		results*(m["wire.result_encode_ns"]+m["wire.result_decode_ns"]) +
		chunks*(m["wire.chunk_encode_ns"]+m["wire.chunk_decode_ns"])) / 1000
	// Every flush is one write and one read on a memnet conn (half a
	// ping-pong); the bytes then move at the bulk rate.
	m["memnet.est_us_per_op"] = flushes/ops*m["memnet.rtt_us"]/2 + perOp("wire_bytes_out")/m["memnet.bulk_mb_s"]
	// A remote fetch has its chunks produced by the holder's store and
	// verified and assembled by the requester; an admitted copy is
	// installed once more. (synth_chunk and build_manifest are the two
	// halves of those calls, listed so a change in either can be told
	// apart.)
	remoteMB := perOp("transfer_bytes_in") / 1e6
	m["content.est_ms_per_op"] = chunks*m["content.store_chunk_ns"]/1e6 + 1000*remoteMB/m["content.assembly_mb_s"] +
		perOp("content_cache_installs")*m["content.putcached_us"]/1000
	m["driver.unattributed_us_per_op"] = 1000*m["cpu_ms_per_op"] - m["wire.est_us_per_op"] - m["memnet.est_us_per_op"] - 1000*m["content.est_ms_per_op"]

	m["driver.gen_ns_per_op"] = genNs
	var tracedRate, refRate float64
	for c := range p.ops {
		tracedRate += windowedRate(p.start, p.logs[c].end, p.logs[c].failed)
		refRate += windowedRate(reference.start, reference.logs[c].end, reference.logs[c].failed)
	}
	m["driver.trace_overhead_share"] = 1 - share(tracedRate, refRate)
}

// timeIt returns the median over five rounds of fn's cost per iteration
// in nanoseconds; fn runs iters iterations itself.
func timeIt(iters int, fn func(iters int)) float64 {
	rounds := make([]float64, 5)
	for i := range rounds {
		t0 := time.Now()
		fn(iters)
		rounds[i] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return medianFloat(rounds)
}

// mbPerS converts ns per iteration over bytes-per-iteration to MB/s.
func mbPerS(nsPerIter float64, bytes int) float64 { return float64(bytes) / nsPerIter * 1e3 }

// sink keeps results alive so the timed calls are not optimised away.
var sink any

// costTable times each layer's public functions in isolation, on the
// frame kinds and sizes the workloads send. docBytes is the workload's
// document size.
func costTable(docBytes int) map[string]float64 {
	m := make(map[string]float64)
	const small = 100000 // iterations for nanosecond-scale calls

	// wire: the three frames that make up nearly all traffic.
	frames := map[string]wire.Envelope{
		"query":  {From: 7, Msg: overlay.QueryMsg{ID: 0x9e3779b97f4a7c15, Category: 17, Want: 1, Origin: 123, Hops: 1, Entry: true}},
		"result": {From: 9, Msg: overlay.ResultMsg{ID: 0x9e3779b97f4a7c15, Docs: []catalog.DocID{1234}, Hops: 2, From: 9}},
		"chunk":  {From: 9, Msg: wire.Chunk{Doc: 3, Xfer: 77, Index: 5, Data: content.SyntheticChunk(3, int64(docBytes), content.DefaultChunkSize, 0)}},
	}
	payloads := make(map[string][]byte)
	for name, env := range frames {
		iters := small
		if name == "chunk" {
			iters = 2000
		}
		buf := make([]byte, 0, 80<<10)
		m["wire."+name+"_encode_ns"] = timeIt(iters, func(n int) {
			for i := 0; i < n; i++ {
				buf, _ = wire.AppendEnvelope(buf[:0], env) // these frame types always encode
			}
		})
		payload := append([]byte(nil), buf...)
		payloads[name] = payload
		m["wire."+name+"_decode_ns"] = timeIt(iters, func(n int) {
			for i := 0; i < n; i++ {
				sink, _ = wire.DecodeEnvelope(payload)
			}
		})
	}
	m["wire.query_frame_bytes"] = float64(len(payloads["query"]) + 1) // + length prefix
	m["wire.allocs_per_roundtrip"] = allocsPer(small, func() {
		buf := make([]byte, 0, 256)
		for _, name := range []string{"query", "result"} {
			buf, _ = wire.AppendEnvelope(buf[:0], frames[name])
			sink, _ = wire.DecodeEnvelope(buf)
		}
	})

	memnetCosts(m)

	// content, on the workload's document size.
	doc := content.SyntheticDoc(1, int64(docBytes))
	nChunks := (docBytes + content.DefaultChunkSize - 1) / content.DefaultChunkSize
	m["content.synth_chunk_mb_s"] = mbPerS(timeIt(1000, func(n int) {
		for i := 0; i < n; i++ {
			sink = content.SyntheticChunk(1, int64(docBytes), content.DefaultChunkSize, i%nChunks)
		}
	}), min(content.DefaultChunkSize, docBytes))
	var man *content.Manifest
	m["content.build_manifest_mb_s"] = mbPerS(timeIt(8, func(n int) {
		for i := 0; i < n; i++ {
			man = content.BuildManifest(1, doc, content.DefaultChunkSize)
		}
	}), docBytes)
	m["content.assembly_mb_s"] = mbPerS(timeIt(8, func(n int) {
		for i := 0; i < n; i++ {
			a := content.NewAssembly(man)
			for c := 0; c < nChunks; c++ {
				lo := c * content.DefaultChunkSize
				_, _ = a.Add(c, doc[lo:min(lo+content.DefaultChunkSize, docBytes)]) // own bytes always verify
			}
			sink, _ = a.Bytes()
		}
	}), docBytes)
	store := content.NewStore(0)
	store.Register(1, int64(docBytes))
	m["content.store_chunk_ns"] = timeIt(1000, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = store.Chunk(1, i%nChunks)
		}
	})
	store.SetCacheBudget(4 * int64(docBytes)) // every fifth install evicts
	m["content.putcached_us"] = timeIt(20, func(n int) {
		for i := 0; i < n; i++ {
			store.PutCached(catalog.DocID(100+i), doc)
		}
	}) / 1000

	// cache, metrics, timerwheel: one call each on the hot paths.
	striped, err := cache.NewStriped(cache.LRU, 1024<<20)
	if err != nil {
		panic(err) // constant arguments
	}
	m["cache.insert_ns"] = timeIt(small, func(n int) {
		for i := 0; i < n; i++ {
			striped.Insert(catalog.DocID(i%4096), 1<<20)
		}
	})
	m["cache.contains_ns"] = timeIt(small, func(n int) {
		for i := 0; i < n; i++ {
			striped.Contains(catalog.DocID(i % 4096))
		}
	})
	m["metrics.synchist_observe_ns"] = timeIt(small, func(n int) {
		var h metrics.SyncHistogram
		for i := 0; i < n; i++ {
			h.Observe(float64(i))
		}
	})
	wheel := timerwheel.New()
	keep := wheel.Every(time.Hour, func(time.Time) {}) // keeps the wheel goroutine up between pairs
	m["timerwheel.every_ns"] = timeIt(20000, func(n int) {
		for i := 0; i < n; i++ {
			wheel.Every(time.Hour, func(time.Time) {})()
		}
	})
	keep()

	offlineCosts(m)
	return m
}

// allocsPer is the mean number of heap allocations one call of fn makes.
func allocsPer(iters int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// memnetCosts times the fabric alone: a 64-byte ping-pong, a bulk stream
// of 64 KB writes through a 512 KB ring, and connection set-up.
func memnetCosts(m map[string]float64) {
	nw := memnet.NewSized(512 << 10)
	ln, err := nw.Listen("cost:0")
	if err != nil {
		panic(err) // fresh fabric, fresh address
	}
	defer ln.Close()
	addr := ln.Addr().String()

	// echo serves one connection: it returns every 64-byte message, and
	// swallows anything after the first byte 0xFF (the bulk stream).
	echo := func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		msg := make([]byte, 64)
		for {
			if _, err := io.ReadFull(conn, msg); err != nil {
				return
			}
			if msg[0] == 0xFF {
				_, _ = io.Copy(io.Discard, conn) // ends when the writer closes
				return
			}
			if _, err := conn.Write(msg); err != nil {
				return
			}
		}
	}

	done := make(chan struct{})
	go func() { echo(); close(done) }()
	conn, err := nw.Dial(addr)
	if err != nil {
		panic(err)
	}
	msg := make([]byte, 64)
	m["memnet.rtt_us"] = timeIt(10000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(msg); err != nil {
				panic(err)
			}
			if _, err := io.ReadFull(conn, msg); err != nil {
				panic(err)
			}
		}
	}) / 1000
	msg[0] = 0xFF
	block := make([]byte, 64<<10)
	if _, err := conn.Write(msg); err != nil {
		panic(err)
	}
	m["memnet.bulk_mb_s"] = mbPerS(timeIt(1000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(block); err != nil {
				panic(err)
			}
		}
	}), len(block))
	conn.Close()
	<-done

	m["memnet.dial_us"] = timeIt(5000, func(n int) {
		for i := 0; i < n; i++ {
			c, err := nw.Dial(addr)
			if err != nil {
				panic(err)
			}
			s, err := ln.Accept()
			if err != nil {
				panic(err)
			}
			c.Close()
			s.Close()
		}
	}) / 1000
}

// offlineCosts times the two layers no workload runs yet: one MaxFair
// reassignment on the query_1k deployment after a popularity skew, and a
// membership tick in a 200-member view on a virtual clock with every
// probe answered.
func offlineCosts(m map[string]float64) {
	inst, _, _, _, err := buildModel(findWorkload("query_1k").shape, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("query_1k model: %v", err))
	}
	balanced, err := core.MaxFair(inst, core.Options{})
	if err != nil {
		panic(err)
	}
	m["core.reassign_ms"] = timeIt(1, func(int) {
		st := balanced.State.Clone()
		for _, cat := range st.CategoriesIn(0) {
			_ = st.SetCategoryPopularity(cat, 8*st.CategoryPopularity(cat)) // cat comes from st
		}
		sink, _ = core.MaxFairReassign(st, core.ReassignOptions{TargetFairness: 0.95, MaxMoves: 20})
	}) / 1e6

	cfg := membership.DefaultConfig()
	now := time.Unix(0, 0)
	det := membership.New(0, "mem:0", cfg, shapeSeed)
	for id := 1; id < 200; id++ {
		det.Observe(model.NodeID(id), fmt.Sprintf("mem:%d", id), now)
	}
	packets := 0
	const ticks = 20000
	m["membership.tick_ns"] = timeIt(ticks, func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(cfg.ProbeInterval)
			for _, pk := range det.Tick(now) {
				packets++
				if ping, ok := pk.Msg.(membership.Ping); ok {
					det.OnAck(pk.To, membership.Ack{Seq: ping.Seq, Target: pk.To}, now)
				}
			}
		}
	})
	m["membership.packets_per_tick"] = float64(packets) / (5 * ticks)
}
