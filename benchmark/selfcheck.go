package main

import (
	"fmt"
	"math"
	"os"
)

// selfcheckRuns is the size of each of the two sets.
const selfcheckRuns = 5

// runSelfcheck measures the benchmark's own noise: two sets of
// selfcheckRuns runs per workload, interleaved run by run and workload
// by workload (A B C D A B C D …) so machine drift lands on both sets and
// all workloads alike, every run in a fresh process and on its own seed.
// For each end-to-end metric it prints both medians, their relative gap,
// and the quartile spread of all runs, as a Markdown table. It returns 1
// if a gap exceeds the metric's bound, or a spread does (setup_s is
// exempt from the spread rule, as in the accepting driver).
func runSelfcheck(seed int64, seconds int, scale float64) int {
	// values[workload][metric][set] = one value per run.
	values := make(map[string]map[string]*[2][]float64)
	failed := make(map[string]int)
	for _, w := range workloads {
		values[w.name] = make(map[string]*[2][]float64)
		for _, d := range endToEnd {
			values[w.name][d.Name] = new([2][]float64)
		}
	}
	for run := 0; run < 2*selfcheckRuns; run++ {
		for _, w := range workloads {
			res, err := runOne(w.name, seed+int64(run), seconds, scale, 0, "", false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d failed its checks\n", w.name, seed+int64(run))
				return 1
			}
			fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d %s done\n", run+1, 2*selfcheckRuns, w.name)
			failed[w.name] += res.Failed
			for _, d := range endToEnd {
				set := values[w.name][d.Name]
				set[run%2] = append(set[run%2], res.Metrics[d.Name].Value)
			}
		}
	}

	fmt.Printf("Two interleaved sets of %d runs per workload, seeds %d..%d, -seconds %d, GOMAXPROCS %d (fetch_4mb: %d).\n",
		selfcheckRuns, seed, seed+2*selfcheckRuns-1, seconds, defaultProcs, findWorkload("fetch_4mb").gomaxprocs())
	fmt.Println("gap = |median B − median A| ÷ median A; spread = (Q3 − Q1) ÷ median over all runs, quartiles as Python's statistics.quantiles(n=4).")
	code := 0
	for _, w := range workloads {
		fmt.Printf("\n### %s (ops failed over all runs: %d)\n\n", w.name, failed[w.name])
		fmt.Println("| metric | unit | median A | median B | gap | Q1 | Q3 | spread | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			set := values[w.name][d.Name]
			a, b := medianFloat(set[0]), medianFloat(set[1])
			q1, q2, q3 := quartiles(append(append([]float64(nil), set[0]...), set[1]...))
			gap, spread := math.Abs(b-a)/math.Abs(a), (q3-q1)/math.Abs(q2)
			verdict := "ok"
			if gap > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
				verdict, code = "**OVER**", 1
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.4f | %.6g | %.6g | %.4f | %.2f | %s |\n",
				d.Name, d.Unit, a, b, gap, q1, q3, spread, d.Bound, verdict)
		}
	}
	return code
}
