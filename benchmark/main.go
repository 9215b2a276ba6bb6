// Command benchmark is the repository's one repeatable benchmark of the
// live node: four frozen workloads run against in-process livenet
// clusters over memnet, eight end-to-end metrics per workload, and a
// traced pass that adds a per-layer cost table. README.md explains the
// workloads, the fixed conditions and how to read the output.
//
//	bash benchmark/run.sh -all -seed 51                 # every workload, untraced
//	bash benchmark/run.sh -all -trace 1                 # the per-layer pass
//	bash benchmark/run.sh -workload query_small -seed 7 -seconds 20 -trace 0
//	bash benchmark/run.sh -selfcheck                    # two interleaved sets of runs
//
// A single -workload run ends with the one-line JSON result the
// BENCHMARK.json contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured-phase
// length the accepting driver asks for.
const defaultSeconds = 20

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload and print the JSON result line")
		seed      = flag.Int64("seed", 51, "schedule seed: same seed, same op lists")
		seconds   = flag.Int("seconds", defaultSeconds, "measured-phase length the op counts are scaled to")
		trace     = flag.Int("trace", 0, "1: the traced pass (spans on, per-layer metrics, a third of the ops)")
		scale     = flag.Float64("scale", 1, "extra multiplier on the op counts (smoke tests)")
		all       = flag.Bool("all", false, "run every workload, each in a fresh process")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of 5 runs per workload and compare their medians")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		outDir    = flag.String("out", "benchmark/out", "directory for span files")
	)
	flag.Parse()

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *scale))
	case *all:
		os.Exit(runAll(*seed, *seconds, *scale, *trace, *outDir))
	default:
		w := findWorkload(*name)
		if w == nil {
			names := make([]string, len(workloads))
			for i := range workloads {
				names[i] = workloads[i].name
			}
			fmt.Fprintf(os.Stderr, "benchmark: -workload must be one of %s\n", strings.Join(names, ", "))
			os.Exit(2)
		}
		if *seconds < 1 || *scale <= 0 {
			fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be positive")
			os.Exit(2)
		}
		runtime.GOMAXPROCS(w.gomaxprocs())
		res, err := runWorkload(w, *seed, *seconds, *scale, *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		decls := endToEnd
		if *trace == 1 {
			decls = perLayer
		}
		res.print(decls)
		os.Stdout.Write(res.jsonLine(decls))
	}
}

// resultLine is the contract's result: exactly these four keys, each
// metric value as measured.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the run as a resultLine carrying the metrics of decls.
func (res *result) jsonLine(decls []metricDecl) []byte {
	out := resultLine{res.correct(), res.attempted, res.failed, make(map[string]metricValue, len(decls))}
	for _, d := range decls {
		out.Metrics[d.Name] = metricValue{res.metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return append(b, '\n')
}

// manifestJSON renders BENCHMARK.json from the declarations in
// workloads.go, so the file and the program cannot drift apart.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e(d))
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// runOne runs one workload in a fresh process of this same binary —
// one process per run is a fixed condition — and parses its result line.
// The child's own report is echoed when asked for, and always when the
// run failed a check.
func runOne(name string, seed int64, seconds int, scale float64, trace int, outDir string, echo bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	if echo || !res.Correct {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	return &res, nil
}

// runAll runs the four workloads one after another and returns the exit
// code: 1 if any run broke or failed a check.
func runAll(seed int64, seconds int, scale float64, trace int, outDir string) int {
	code := 0
	for _, w := range workloads {
		res, err := runOne(w.name, seed, seconds, scale, trace, outDir, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}
