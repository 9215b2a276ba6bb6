package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// processStart anchors setup_s and every span timestamp. Package
// variables initialise before main, a few milliseconds after exec.
var processStart = time.Now()

// span is one timed interval: a layer call during set-up, or one op.
type span struct {
	id, parent int
	name       string
	client     int // -1 outside the measured phase
	start, end time.Duration
}

// tracer records spans in memory from the benchmark's own files, around
// the calls into each layer, and writes them out when the run ends. A
// nil tracer records nothing, which is how the untraced pass runs.
type tracer struct {
	tree  []span   // run, set-up and phase spans, in begin order
	stack []int    // open tree spans
	ops   [][]span // per client, capacity fixed before launch
}

func newTracer(opsPerClient []int) *tracer {
	t := &tracer{ops: make([][]span, len(opsPerClient))}
	for c, n := range opsPerClient {
		t.ops[c] = make([]span, 0, n)
	}
	return t
}

// begin opens a span under the innermost open one and returns the
// function that closes it. Set-up is single-threaded, so a stack is
// enough to know the parent.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	id := len(t.tree) + 1
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.tree = append(t.tree, span{id: id, parent: parent, name: name, client: -1, start: time.Since(processStart)})
	t.stack = append(t.stack, id)
	return func() {
		t.tree[id-1].end = time.Since(processStart)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// current is the innermost open span's id.
func (t *tracer) current() int {
	if t == nil || len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// op records one finished op of a client; ids are assigned on write.
func (t *tracer) op(client, parent int, k opKind, start, end time.Time) {
	t.ops[client] = append(t.ops[client], span{
		parent: parent, name: "livenet." + kindNames[k], client: client,
		start: start.Sub(processStart), end: end.Sub(processStart),
	})
}

// ms is the duration of the first tree span called name, in
// milliseconds.
func (t *tracer) ms(name string) float64 {
	for _, s := range t.tree {
		if s.name == name {
			return float64(s.end-s.start) / float64(time.Millisecond)
		}
	}
	return 0
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	id := len(t.tree)
	line := func(s span) {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"client":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.name, s.client, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	for _, s := range t.tree {
		line(s)
	}
	for _, ops := range t.ops {
		for _, s := range ops {
			id++
			s.id = id
			line(s)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
