// Command p2pbench runs harness plans — scripted scenarios with a
// tracked perf trajectory — and gates them against committed baselines.
// The process plans are smoke, bulkmix and flashbulk; scale-1k, scale-5k
// and scale-10k boot a paper-scale live cluster in-process over memnet;
// each has a baseline in bench/. soak-<name> runs a chaos soak scenario
// in-process.
//
//	p2pbench -list                         # what plans exist
//	p2pbench -plan smoke                   # run one plan → BENCH_smoke.json
//	p2pbench -plan smoke -baseline bench/BENCH_smoke.baseline.json
//	p2pbench -plan scale-5k -baseline bench
//	p2pbench -all                          # run the whole suite
//
// Every run writes BENCH_<plan>.json (see -out): the plan's declared
// objectives plus per-act and run-level data points. With -baseline,
// the run is compared metric by metric under the plan's tolerances and
// the process exits 1 on any regression — that is the CI gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"p2pshare/internal/harness"
)

func main() {
	// Indirection so the profile-flushing defers in run still execute on
	// a failing exit code.
	os.Exit(run())
}

func run() int {
	plan := flag.String("plan", "", "plan name to run (see -list)")
	all := flag.Bool("all", false, "run every built-in plan")
	list := flag.Bool("list", false, "list plans and exit")
	out := flag.String("out", ".", "directory for BENCH_<plan>.json artifacts")
	baseline := flag.String("baseline", "", "baseline BENCH json (or directory of them) to gate against")
	seed := flag.Int64("seed", 0, "override the plan seed (0 = plan default)")
	cpuprofile := flag.String("cpuprofile", "", "write the driver's CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write the driver's heap profile to this path on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p2pbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "p2pbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "p2pbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "p2pbench:", err)
			}
		}()
	}

	if *list {
		for _, p := range harness.Plans() {
			fmt.Printf("%-22s %s\n", p.Name, p.Overview)
		}
		return 0
	}

	var plans []harness.Plan
	switch {
	case *all:
		plans = harness.Plans()
	case *plan != "":
		p, err := harness.LookupPlan(*plan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p2pbench:", err)
			return 2
		}
		plans = []harness.Plan{p}
	default:
		fmt.Fprintln(os.Stderr, "p2pbench: pass -plan <name>, -all, or -list")
		return 2
	}

	// One shared build across the suite.
	binDir, err := os.MkdirTemp("", "p2pbench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2pbench:", err)
		return 1
	}
	defer os.RemoveAll(binDir)

	failed := false
	for _, p := range plans {
		started := time.Now()
		res, err := harness.Run(p, harness.RunConfig{
			Out: os.Stdout, Seed: *seed, BinDir: binDir,
		})
		res.Started = started.UTC().Format(time.RFC3339)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p2pbench: plan %s: %v\n", p.Name, err)
			failed = true
		}
		if res.Totals != nil {
			path := filepath.Join(*out, "BENCH_"+p.Name+".json")
			if werr := res.WriteFile(path); werr != nil {
				fmt.Fprintln(os.Stderr, "p2pbench:", werr)
				failed = true
			} else {
				fmt.Printf("%s\nwrote %s\n", res.Summary(), path)
			}
		}
		if err != nil {
			continue
		}
		if *baseline != "" {
			base, ok := loadBaseline(*baseline, p.Name)
			if !ok {
				fmt.Printf("plan %s: no baseline yet; skipping gate\n", p.Name)
				continue
			}
			regs := harness.Compare(p.Optimized, base, res)
			if len(regs) == 0 {
				fmt.Printf("plan %s: within tolerance of baseline\n", p.Name)
				continue
			}
			failed = true
			fmt.Fprintf(os.Stderr, "plan %s: %d regression(s) vs baseline:\n", p.Name, len(regs))
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// loadBaseline resolves -baseline: a file gates the plan directly; a
// directory is searched for BENCH_<plan>.baseline.json.
func loadBaseline(path, plan string) (harness.Result, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return harness.Result{}, false
	}
	if fi.IsDir() {
		path = filepath.Join(path, "BENCH_"+plan+".baseline.json")
	}
	res, err := harness.ReadResult(path)
	if err != nil {
		return harness.Result{}, false
	}
	return res, true
}
