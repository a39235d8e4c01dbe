// Command bench is the repository's one performance harness: five
// workloads (three live ensembles through melissa.RunOnline, two closed-loop
// loads against internal/serve), one schema, declared in BENCHMARK.json at
// the repo root. End-to-end numbers come from untraced runs; -trace adds a
// traced run whose per-layer numbers sit under them. See README.md.
//
//	go run ./bench                      every workload, end-to-end table
//	go run ./bench -trace               plus the per-layer tables and bench/out/trace-*.json
//	go run ./bench -sets 2              two sets back to back, compared against the bounds
//	go run ./bench -workload serve_lone -seed 7 -seconds 12 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, and as
// the last line of standard output one JSON object with the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"melissa"
	"melissa/internal/trace"
)

type runOptions struct {
	seed    uint64
	seconds float64
	tracer  *tracer // nil: untraced
	outDir  string
	smoke   bool
}

// report is one workload's result.
type report struct {
	Workload       string
	Attempted      int
	Failed         int
	Notes          []string // why operations failed
	EndToEnd       map[string]float64
	Layers         map[string]float64 // metrics that do not apply are absent
	LatencySamples int
	Reps           int
}

func newReport(workload string) *report {
	return &report{Workload: workload, EndToEnd: map[string]float64{}, Layers: map[string]float64{}}
}

func (r *report) correct() bool { return r.Failed == 0 }

// runWorkload dispatches a workload name to its definition at the chosen
// scale. The smoke scale exists for the tests: every workload end to end,
// checks on, in a fraction of a second each.
func runWorkload(name string, ro runOptions) (*report, error) {
	resetPeakRSS()
	paper := trainSpec{problem: melissa.Heat, sims: 100, steps: 100, grid: 32, hidden: []int{256, 256},
		buffer: melissa.Reservoir, capacity: 6000, threshold: 1000, ranks: 1, clients: 2,
		valSims: 4, valEvery: 100, mseLimit: 0.0017}
	stream := trainSpec{problem: func() melissa.Problem { return replayProblem{} }, sims: 800, steps: 100, grid: 32, hidden: []int{8},
		buffer: melissa.FIFO, capacity: 6000, ranks: 1, clients: 2,
		valSims: 4, valEvery: 100, mseLimit: 0.03}
	lone := serveSpec{conns: 1, window: 1, grid: 32, hidden: []int{256, 256}}
	if ro.smoke {
		paper.sims, paper.steps, paper.grid, paper.hidden = 8, 20, 8, []int{16, 16}
		paper.capacity, paper.threshold, paper.valSims, paper.valEvery, paper.mseLimit = 60, 20, 1, 5, 1
		stream.sims, stream.steps, stream.grid = 20, 20, 8
		stream.capacity, stream.valSims, stream.valEvery, stream.mseLimit = 60, 1, 5, 1
		lone.grid, lone.hidden = 8, []int{16, 16}
	}
	switch name {
	case "ensemble_paper":
		return runTrain(name, paper, ro)
	case "ensemble_2rank":
		paper.ranks = 2
		paper.mseLimit *= 1.3 // its median MSE is that much higher: half as many steps on the same samples
		return runTrain(name, paper, ro)
	case "stream_ingest":
		return runTrain(name, stream, ro)
	case "serve_lone":
		return runServe(name, lone, ro)
	case "serve_batched":
		lone.conns, lone.window, lone.hotShare, lone.hotKeys = 2, 16, 0.25, 512
		return runServe(name, lone, ro)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// guard is the hang guard: if the run is still going at the deadline it
// dumps every goroutine to outDir and exits non-zero. Pipelines are always
// run to completion — context cancellation is never a stop path here — so
// this is the only thing standing between a lifecycle bug and a stuck CI job.
func guard(limit time.Duration, outDir, what string) *time.Timer {
	return time.AfterFunc(limit, func() {
		path := filepath.Join(outDir, "hang-"+what+".txt")
		if f, err := os.Create(path); err == nil {
			pprof.Lookup("goroutine").WriteTo(f, 2)
			f.Close()
		}
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v; goroutines dumped to %s\n", what, limit, path)
		os.Exit(3)
	})
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident-set high-water mark, so that a workload's peak is its own even
// when several run in one process. Where the kernel refuses, the mark simply
// stays the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the resident-set high-water mark since resetPeakRSS.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resultLine is the machine-readable last line of a single-workload run.
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

// line renders the report as the contract's JSON object: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
func (r *report) line(traced bool) resultLine {
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.Layers
	}
	out := resultLine{Correct: r.correct(), Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// printTable prints one row per metric and one column per workload,
// leaving out the rows no workload measured (an untraced set has no traced
// layers).
func printTable(title string, defs []metricDef, reports []*report, pick func(*report) map[string]float64) {
	headers := []string{"metric", "unit"}
	for _, r := range reports {
		headers = append(headers, r.Workload)
	}
	table := trace.NewTable(title, headers...)
	for _, d := range defs {
		row, measured := []any{d.Name, d.Unit}, false
		for _, r := range reports {
			if v, ok := pick(r)[d.Name]; ok {
				row, measured = append(row, formatValue(v)), true
			} else {
				row = append(row, "n/a")
			}
		}
		if measured {
			table.AddRow(row...)
		}
	}
	fmt.Println()
	table.Render(os.Stdout)
}

// formatValue prints four significant digits, and whole numbers above that.
func formatValue(v float64) string {
	if v >= 1e4 || v <= -1e4 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// runOne runs one workload under the hang guard and, when tracing, writes
// its span file.
func runOne(name string, ro runOptions, traced bool, limit time.Duration) (*report, error) {
	if traced {
		ro.tracer = newTracer()
	}
	stop := guard(limit, ro.outDir, name)
	r, err := runWorkload(name, ro)
	stop.Stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, n := range r.Notes {
		fmt.Printf("%s FAILED: %s\n", name, n)
	}
	return r, ro.tracer.write(filepath.Join(ro.outDir, "trace-"+name+".json"), name)
}

// runSet runs every workload once and prints the tables.
func runSet(ro runOptions, traced bool) ([]*report, error) {
	var reports []*report
	for _, w := range workloads {
		r, err := runOne(w.Name, ro, traced, time.Duration(ro.seconds*6+120)*time.Second)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%-15s %d repetitions, %d latency samples, %d operations attempted, %d failed\n", w.Name, r.Reps, r.LatencySamples, r.Attempted, r.Failed)
		reports = append(reports, r)
	}
	printTable("end to end (an operation is a sample trained or a request answered)", endToEnd, reports, func(r *report) map[string]float64 { return r.EndToEnd })
	printTable("per layer", perLayer, reports, func(r *report) map[string]float64 { return r.Layers })
	return reports, nil
}

// compareSets prints, per workload and end-to-end metric, each set's value
// and how far the worst later set is from the first, against the metric's
// bound; it reports whether every pairing stayed inside its bound.
func compareSets(sets [][]*report) bool {
	ok := true
	fmt.Printf("\nsets compared (relative worsening against set 1, and the bound)\n")
	for wi, w := range workloads {
		for _, d := range endToEnd {
			base := sets[0][wi].EndToEnd[d.Name]
			var vals []string
			worst := 0.0
			for _, set := range sets {
				v := set[wi].EndToEnd[d.Name]
				vals = append(vals, formatValue(v))
				worst = max(worst, worsening(base, v, d.higherIsBetter()))
			}
			verdict := "ok"
			if worst > d.Bound {
				verdict = "EXCEEDS"
				ok = false
			}
			fmt.Printf("%-15s %-16s %-40s %+6.1f%% of %4.0f%%  %s\n", w.Name, d.Name, strings.Join(vals, " "), 100*worst, 100*d.Bound, verdict)
		}
	}
	return ok
}

// normaliseArgs lets -trace be written bare (the human form) or followed by
// 0/1 (the form BENCHMARK.json's command is invoked with).
func normaliseArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload and end with the machine-readable result line (default: all of them, with tables)")
	seed := fs.Uint64("seed", 2023, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 20, "how long one workload measures")
	traced := fs.Bool("trace", false, "add the traced run: per-layer metrics and out/trace-<workload>.json")
	sets := fs.Int("sets", 1, "run this many full sets back to back and compare them against the bounds")
	smoke := fs.Bool("smoke", false, "tiny scale, for tests")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for traces, goroutine dumps and scratch checkpoints")
	fs.Parse(normaliseArgs(os.Args[1:]))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	ro := runOptions{seed: *seed, seconds: *seconds, outDir: *outDir, smoke: *smoke}

	if *workload != "" {
		// The driver allows a run 180 s.
		r, err := runOne(*workload, ro, *traced, 170*time.Second)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(r.line(*traced))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !r.correct() {
			os.Exit(1)
		}
		return
	}

	var all [][]*report
	for s := 0; s < *sets; s++ {
		if *sets > 1 {
			fmt.Printf("\n=== set %d of %d ===\n", s+1, *sets)
		}
		reports, err := runSet(ro, *traced)
		if err != nil {
			fatal(err)
		}
		all = append(all, reports)
	}
	failed := 0
	for _, set := range all {
		for _, r := range set {
			failed += r.Failed
		}
	}
	ok := failed == 0
	if *sets > 1 && !compareSets(all) {
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
