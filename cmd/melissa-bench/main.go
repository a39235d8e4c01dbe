// Command melissa-bench reproduces the paper's tables and figures. Timing
// experiments run at full paper scale on the cluster simulator; quality
// experiments train the trainer melissa-server runs — melissa.ServerConfig
// of the selected scale preset's melissa.Config — with one in-process
// data-parallel rank per GPU rather than one batch as large as all of them.
// Figure 6's offline baseline is melissa.GenerateDataset followed by
// melissa.TrainOffline. -problem and -dt set the preset's Config; -dt 0 (the
// default) is the problem's own step, and a negative -dt is an error.
//
// Usage:
//
//	melissa-bench -experiment all -scale default [-csv out/]
//	melissa-bench -experiment fig2
//	melissa-bench -experiment fig4 -problem gray-scott
//	melissa-bench -experiment table2 -quality=false
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"melissa"
	"melissa/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig2|fig3|fig4|fig5|fig6|table1|table2|appendixA|cost|ablations|all")
		scaleName  = flag.String("scale", "default", "quality-experiment scale: tiny|default|large")
		problem    = flag.String("problem", "heat", "registered problem for quality experiments ("+strings.Join(melissa.Problems(), "|")+")")
		dt         = flag.Float64("dt", 0, "solver time step for quality experiments (0 = problem default)")
		csvDir     = flag.String("csv", "", "directory for CSV series dumps (optional)")
		quality    = flag.Bool("quality", true, "include real-training MSE columns in table1/table2")
	)
	flag.Parse()

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	prob, err := melissa.ProblemByName(*problem)
	if err != nil {
		fatal(err)
	}
	scale.Problem = prob
	// The scale presets carry the heat equation's Dt; other problems have
	// their own stable step size, so resolve the default per problem
	// instead of silently running a near-static ensemble.
	switch {
	case *dt > 0:
		scale.Dt = *dt
	case *dt == 0:
		scale.Dt = melissa.DefaultDtFor(prob)
	default:
		fatal(fmt.Errorf("-dt %g must be > 0, or 0 for the problem's default", *dt))
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	run := func(name string) bool { return *experiment == "all" || *experiment == name }
	ran := false

	if run("fig2") {
		ran = true
		res, err := experiments.Figure2()
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		if *csvDir != "" {
			if err := res.CSV(*csvDir); err != nil {
				fatal(err)
			}
		}
	}
	if run("fig3") {
		ran = true
		res, err := experiments.Figure3()
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
	}
	if run("fig4") {
		ran = true
		res, err := experiments.Figure4(scale)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		if *csvDir != "" {
			if err := res.CSV(*csvDir); err != nil {
				fatal(err)
			}
		}
	}
	if run("fig5") {
		ran = true
		res, err := experiments.Figure5(scale)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		if *csvDir != "" {
			if err := res.CSV(*csvDir); err != nil {
				fatal(err)
			}
		}
	}
	if run("fig6") {
		ran = true
		res, err := experiments.Figure6(scale)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		if *csvDir != "" {
			if err := res.CSV(*csvDir); err != nil {
				fatal(err)
			}
		}
	}
	if run("table1") {
		ran = true
		res, err := experiments.Table1(scale, *quality)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
	}
	if run("table2") {
		ran = true
		res, err := experiments.Table2(scale, *quality)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
	}
	if run("appendixA") {
		ran = true
		experiments.AppendixA(nil, 60000).Render(os.Stdout)
	}
	if run("cost") {
		ran = true
		res, err := experiments.CostAnalysis()
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		rows, err := experiments.ReservationOrder(1.5)
		if err != nil {
			fatal(err)
		}
		experiments.RenderReservation(os.Stdout, rows)
	}
	if run("ablations") {
		ran = true
		caps, err := experiments.AblationCapacity(nil)
		if err != nil {
			fatal(err)
		}
		ths, err := experiments.AblationThreshold(nil)
		if err != nil {
			fatal(err)
		}
		experiments.RenderAblations(os.Stdout, caps, ths, experiments.AblationAllReduce())
		ev, err := experiments.AblationEviction()
		if err != nil {
			fatal(err)
		}
		experiments.RenderEvictionAblation(os.Stdout, ev)
		if *quality {
			od, err := experiments.AblationOfflineData(scale, nil)
			if err != nil {
				fatal(err)
			}
			experiments.RenderOfflineDataAblation(os.Stdout, od)
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *experiment))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "melissa-bench:", err)
	os.Exit(1)
}
