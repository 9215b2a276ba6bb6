package main

import (
	"fmt"
	"sort"
	"time"
)

// result is one workload run: what the contract's JSON line carries,
// plus the checks that decide `correct`.
type result struct {
	workload   string
	seed       int64
	schedule   string // SHA-256 of the op schedule
	attempted  int
	failed     int
	failsBy    map[string]int
	cut        int                // ops of the schedule the time limit left undone
	violations []string           // broken output or conservation checks
	metrics    map[string]float64 // by declared name
	traceFile  string
}

func (r *result) correct() bool { return len(r.violations) == 0 }

// runWorkload performs one run of w: set-up, warm-up, the measured phase
// and every check. scale multiplies the op counts (1 = the calibrated
// run for `seconds`); traced selects the per-layer pass.
func runWorkload(w *workload, seed int64, seconds int, scale float64, traced bool, outDir string) (*result, error) {
	nOps := int(float64(w.ops) * scale * float64(seconds) / refSeconds)
	if min := w.clients * rateWindows; nOps < min {
		nOps = min
	}
	// The warm-up does not shrink with -seconds: what has to be warm is
	// the same however long the measurement is.
	nWarm := int(float64(w.warmup) * scale)
	if traced {
		// The traced pass runs a sixth of the ops untraced as its own
		// reference, then a third of them with spans on.
		nOps /= 2
	}

	r := &runner{w: w}
	if traced {
		perClient := make([]int, w.clients)
		for c := range perClient {
			perClient[c] = nOps/w.clients + 1
		}
		r.tr = newTracer(perClient)
	}
	endRun := r.tr.begin("run")
	endSetup := r.tr.begin("setup")

	var err error
	r.inst, r.assign, r.mem, r.place, err = buildModel(w.shape, w.nReps, r.tr)
	if err != nil {
		return nil, err
	}
	genStart := time.Now()
	r.sched = buildSchedule(w, r.inst, r.assign, r.mem, seed, nOps, nWarm)
	genNs := float64(time.Since(genStart).Nanoseconds()) / float64(nOps+nWarm)
	if len(r.sched.pool) < w.origins {
		return nil, fmt.Errorf("%s: only %d eligible origins of %d", w.name, len(r.sched.pool), w.origins)
	}
	r.refs = docRefs(r.inst, r.sched)

	// Everything the run records is allocated before the heap baseline.
	var reference *phase
	measuredOps := r.sched.measured
	if traced {
		refOps := make([][]op, w.clients)
		tracedOps := make([][]op, w.clients)
		for c, list := range measuredOps {
			refOps[c], tracedOps[c] = list[:len(list)/3], list[len(list)/3:]
		}
		reference, measuredOps = newPhase(refOps), tracedOps
	}
	measured := newPhase(measuredOps)
	warmFails := make([]int, w.clients)

	base := r.snapshot()
	endLaunch := r.tr.begin("livenet.launch")
	err = r.launch()
	endLaunch()
	if err != nil {
		return nil, fmt.Errorf("livenet.Launch: %w", err)
	}
	defer r.c.Close()
	booted := r.snapshot()

	endWarm := r.tr.begin("driver.warmup")
	r.runClients(r.sched.warm, true, time.Time{}, func(c, _ int, _ op, _ time.Duration, _ time.Time, fail string) {
		if fail != "" {
			warmFails[c]++
		}
	})
	presizeHeap()
	endWarm()
	endSetup()

	// Three times the nominal length: a calibrated phase never gets there.
	limit := 3 * time.Duration(seconds) * time.Second
	if reference != nil {
		end := r.tr.begin("reference")
		r.measure(reference, 0, limit)
		end()
	}
	endMeasure := r.tr.begin("measure")
	r.measure(measured, r.tr.current(), limit)
	endMeasure()
	endRun()

	res := &result{
		workload: w.name, seed: seed, schedule: r.sched.hash,
		attempted: measured.attempted(),
		metrics:   make(map[string]float64),
	}
	res.failed, res.failsBy = measured.failedOps()
	res.cut = measured.cut
	for _, n := range warmFails {
		if n > 0 {
			// Not part of the measurement, but a cluster that fails ops
			// while warming is not the one the numbers claim to describe.
			res.note("warm-up: %d ops failed", n)
		}
	}
	r.check(measured, res)
	r.endToEnd(measured, base, res)
	if traced {
		r.perLayer(measured, reference, base, booted, genNs, res)
		res.traceFile, err = r.tr.write(outDir, w.name)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// coldLinks opens the warm guard's violation message.
const coldLinks = "links were not warm"

func (res *result) note(format string, args ...any) {
	res.violations = append(res.violations, fmt.Sprintf(format, args...))
}

// check applies the output and conservation checks to the measured
// phase. Ops that returned a sentinel error are failures, reported but
// legal; wrong output and broken accounting are violations.
func (r *runner) check(p *phase, res *result) {
	for _, bad := range []string{"bad_bytes", "empty_result", "wrong_category", "other_error", "closed", "overloaded"} {
		if n := res.failsBy[bad]; n > 0 {
			res.note("%d ops returned %s", n, bad)
		}
	}
	if got, want := p.delta("queries_total"), float64(p.issued(opQuery)); got != want {
		res.note("queries_total grew by %.0f, %.0f queries issued", got, want)
	}
	if got, want := p.delta("fetches_total"), float64(p.issued(opFetch)); got != want {
		res.note("fetches_total grew by %.0f, %.0f fetches issued", got, want)
	}
	// Warm guard. Which node answers an origin is decided per request (a
	// random entry contact, a discovery race between holders), so no
	// finite warm-up can promise that no new pair of nodes ever talks; a
	// cold cluster, though, opens a connection for every few messages. The
	// phase counts as warm while fewer than 1 message in 100 needed one.
	dials, limit := p.delta("transport_dials"), p.delta("transport_sends")/100
	if dials > limit {
		res.note(coldLinks+": %.0f connections dialled during the measured phase (limit %.0f)", dials, limit)
	}
}

// endToEnd computes the eight user-visible metrics, with the same
// definitions on every workload except where splitLatency says so.
func (r *runner) endToEnd(p *phase, base counters, res *result) {
	m := res.metrics
	ops := float64(p.attempted())
	m["setup_s"] = p.start.Sub(processStart).Seconds()

	var rate float64
	for c := range p.ops {
		rate += windowedRate(p.start, p.logs[c].end, p.logs[c].failed)
	}
	m["ops_per_s"] = rate

	kind50, q50, kind95, q95 := numKinds, 0.5, numKinds, 0.95
	if r.w.splitLatency {
		// Over the whole mix the median is a 6 µs cache hit and the 95th
		// percentile sits on the query/fetch boundary; both wobble with the
		// hit share, and so does the median query, which falls where the
		// miss distribution begins. The median fetch falls where the
		// locally answered fetches end and the transfers begin (45th
		// percentile 1.55 ms, 55th 1.94, 60th 3.6: spread 13 % over ten
		// runs, 3 % just below it, 8 % above). Report the 75th percentile
		// of the queries (the middle of the misses) and of the fetches (the
		// middle of the transfers).
		kind50, q50, kind95, q95 = opQuery, 0.75, opFetch, 0.75
	}
	m["op_p50_ms"] = ms(percentile(p.latencies(kind50), q50))
	m["op_p95_ms"] = ms(percentile(p.latencies(kind95), q95))

	m["cpu_ms_per_op"] = ms(p.cpu) / ops
	m["wire_bytes_per_op"] = p.delta("wire_bytes_out") / ops

	work := make([]float64, len(r.inst.Nodes))
	for k := range work {
		if r.w.workBytes {
			work[k] = p.after.bytesOut[k] - p.before.bytesOut[k]
		} else {
			work[k] = p.after.served[k] - p.before.served[k]
		}
	}
	m["load_jain"] = clusterJain(work, r.inst, r.mem)
	m["livenet.node_load_jain"] = nodeJain(work, r.inst)

	m["heap_per_node_kb"] = (float64(p.after.mem.HeapAlloc) - float64(base.mem.HeapAlloc)) / 1024 / float64(len(r.inst.Nodes))
	m["driver.wall_ops_per_s"] = (ops - float64(res.failed)) / p.wall.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// print writes every metric of decls by name with its unit, then the
// run's counts.
func (res *result) print(decls []metricDecl) {
	fmt.Printf("workload %s  seed %d  schedule sha256 %s\n", res.workload, res.seed, res.schedule)
	for _, d := range decls {
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	fmt.Printf("  %-34s %16d count\n", "ops_attempted", res.attempted)
	fmt.Printf("  %-34s %16d count\n", "ops_failed", res.failed)
	kinds := make([]string, 0, len(res.failsBy))
	for k := range res.failsBy {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("    failed with %-20s %10d\n", k, res.failsBy[k])
	}
	if res.cut > 0 {
		fmt.Printf("  time limit struck: %d scheduled ops not run; the box was far slower than calibrated\n", res.cut)
	}
	for _, v := range res.violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	if res.traceFile != "" {
		fmt.Printf("  spans written to %s\n", res.traceFile)
	}
}
