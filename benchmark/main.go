// Command benchmark measures what a client of whatifd sees: it starts
// an in-process server wired as cmd/whatifd wires it, drives it over
// loopback with closed-loop clients on five analyst workloads, and
// reports end-to-end metrics or, in a traced run, a per-layer budget.
// README.md describes the workloads, the metrics and how to read them.
//
//	sh benchmark/run.sh --workload plan-heavy --seed 1 --seconds 12 --trace 0
//	sh benchmark/run.sh                       # every workload, both modes
//	sh benchmark/run.sh -repeat 5 -out new.json
//	sh benchmark/run.sh -compare old.json new.json
//	sh benchmark/run.sh -check-design
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run (default: all five, end-to-end then traced)")
		seed         = fs.Int64("seed", 1, "seed of the cube and of every op sequence")
		seconds      = fs.Float64("seconds", 12, "how long one run measures")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		scaleName    = fs.String("scale", "default", "cube size: default or tiny")
		traceOut     = fs.String("trace-out", "", "append the traced runs' spans to this file as JSON lines")
		repeat       = fs.Int("repeat", 0, "run each selected workload N times end-to-end and print median and quartiles")
		out          = fs.String("out", "", "with -repeat: write every run's metrics to this file, for -compare")
		compare      = fs.Bool("compare", false, "compare two -out files by the bounds in ./BENCHMARK.json: -compare old.json new.json")
		checkDesign  = fs.Bool("check-design", false, "run every workload traced and check it stresses the layers it claims to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files, old and new"))
		}
		worse, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fail(fmt.Errorf("unknown scale %q", *scaleName))
	}
	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []*workloadSpec{w}
	}
	tmp, err := tempRoot()
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	cfg := runConfig{scale: sc, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), tmpRoot: tmp, log: stdout}

	switch {
	case *repeat > 0:
		if err := repeatRuns(cfg, selected, *repeat, *out); err != nil {
			return fail(err)
		}
		return 0
	case *checkDesign:
		ok, err := checkDesignClaims(cfg, selected)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	// One run per selected workload and mode; each ends in its result
	// line. With no -workload that is all five, end-to-end then traced.
	modes := []bool{*trace != 0}
	if *workloadName == "" {
		modes = []bool{false, true}
	}
	code := 0
	for _, w := range selected {
		for _, traced := range modes {
			cfg.workload, cfg.traced = w, traced
			rep, err := run(cfg)
			if err != nil {
				return fail(err)
			}
			if *traceOut != "" && traced {
				if err := writeSpans(*traceOut, w.name, rep.spans); err != nil {
					return fail(err)
				}
			}
			line, err := json.Marshal(rep.resultLine)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%s\n", line)
			if !rep.Correct {
				code = 1
			}
		}
	}
	return code
}
