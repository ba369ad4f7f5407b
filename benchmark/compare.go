package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
)

// runsFile is what -repeat -out writes and -compare reads: every run's
// end-to-end metrics per workload, and the host they were measured on.
type runsFile struct {
	Host    hostStamp                       `json:"host"`
	Seed    int64                           `json:"seed"`
	Seconds float64                         `json:"seconds"`
	Runs    map[string]map[string][]float64 `json:"runs"`
}

type hostStamp struct {
	CPUs       int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stampHost() hostStamp {
	h := hostStamp{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// repeatRuns runs each workload n times end to end on the same seed
// and prints median and quartiles per metric.
func repeatRuns(cfg runConfig, selected []*workloadSpec, n int, out string) error {
	file := runsFile{Host: stampHost(), Seed: cfg.seed, Seconds: cfg.window.Seconds(), Runs: map[string]map[string][]float64{}}
	log := cfg.log
	cfg.log = io.Discard
	for _, w := range selected {
		cfg.workload = w
		runs := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := run(cfg)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s run %d: %d of %d failed", w.name, i+1, rep.Failed, rep.Attempted)
			}
			for name, m := range rep.Metrics {
				runs[name] = append(runs[name], m.Value)
			}
		}
		file.Runs[w.name] = runs
		fmt.Fprintf(log, "%s, %d runs of %.0f s, seed %d\n", w.name, n, cfg.window.Seconds(), cfg.seed)
		fmt.Fprintf(log, "  %-18s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, d := range endToEnd {
			q1, med, q3 := quantile(runs[d.name], 0.25), median(runs[d.name]), quantile(runs[d.name], 0.75)
			fmt.Fprintf(log, "  %-18s %12.4f %12.4f %12.4f %7.1f%% %s\n", d.name, q1, med, q3, 100*(q3-q1)/med, d.unit)
		}
	}
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// manifest is the part of BENCHMARK.json -compare needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// compareFiles prints a verdict for every (workload, end-to-end
// metric) of two run sets, judged by the bounds in the BENCHMARK.json
// at manifestPath, and reports whether any is worse.
//
//	worse       the new median is worse than the old by more than the bound
//	unresolved  the runs of either side spread wider than the bound, so
//	            a change of that size could hide — unless every new run
//	            beats every old run, which is better whatever the spread
//	better      the medians differ, the right way, by more than the spread
//	same        anything else
func compareFiles(w io.Writer, manifestPath, oldPath, newPath string) (anyWorse bool, err error) {
	var man manifest
	var old, cur runsFile
	for _, f := range []struct {
		path string
		into any
	}{{manifestPath, &man}, {oldPath, &old}, {newPath, &cur}} {
		if err := readJSON(f.path, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "old: %s on %+v\nnew: %s on %+v\n", oldPath, old.Host, newPath, cur.Host)
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %9s %8s %6s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, spec := range workloads {
		for _, m := range man.EndToEnd {
			a, b := old.Runs[spec.name][m.Name], cur.Runs[spec.name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			sign := 1.0 // a positive change is a worsening
			if m.Better == "higher" {
				sign = -1
			}
			ma, mb := median(a), median(b)
			worsening := sign * (mb - ma) / ma
			spread := max(iqrShare(a), iqrShare(b))
			verdict := "same"
			switch {
			case spread > m.Bound && slices.Max(signed(b, sign)) < slices.Min(signed(a, sign)):
				verdict = "better"
			case spread > m.Bound:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict = "worse"
				anyWorse = true
			case -worsening > spread:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-12s %-16s %12.4f %12.4f %+8.1f%% %7.1f%% %5.0f%%  %s (change and spread as shares of the old median %.4f)\n",
				spec.name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*spread, 100*m.Bound, verdict, ma)
		}
	}
	return anyWorse, nil
}

// signed flips the values of a higher-is-better metric, so that lower
// is better for every metric compared.
func signed(xs []float64, sign float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = sign * x
	}
	return out
}

// iqrShare is the distance between the quartiles over the median.
func iqrShare(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

// designClaim is one property a workload exists to have.
type designClaim struct {
	workload, metric string
	lo, hi           float64
}

// designClaims says which layer each workload stresses. They hold at
// the baseline this benchmark was recorded at. A later change that
// moves one has changed what a workload measures, which is worth
// knowing but is not a regression: -check-design informs, it does not
// gate.
var designClaims = []designClaim{
	{"plan-heavy", "core.plan_share", 0.7, 1},
	{"broad-scan", "core.plan_share", 0, 0.4},
	{"narrow-mix", "chunk.pool_faults", 0, 0},
	{"plan-heavy", "chunk.pool_faults", 0, 0},
	{"broad-scan", "chunk.pool_faults", 0, 0},
	{"cold-pool", "chunk.pool_hit_ratio", 0, 0.5},
	// Below a half, because each client's last 50 to 500 queries have not
	// come round again when the window ends.
	{"narrow-mix", "server.cache_hit_ratio", 0.4, 0.55},
	{"plan-heavy", "server.cache_hit_ratio", 0, 0},
}

// unattributedLimit is the share of handler time the layer table may
// leave unexplained, either way, on any workload.
const unattributedLimit = 0.10

// checkDesignClaims runs the selected workloads traced and prints each
// claim with what was measured.
func checkDesignClaims(cfg runConfig, selected []*workloadSpec) (bool, error) {
	log := cfg.log
	cfg.log, cfg.traced = io.Discard, true
	ok := true
	fmt.Fprintf(log, "| workload | claim | measured | holds |\n|---|---|---|---|\n")
	row := func(workload, claim string, measured float64, holds bool) {
		fmt.Fprintf(log, "| `%s` | %s | %.3f | %v |\n", workload, claim, measured, holds)
		ok = ok && holds
	}
	for _, w := range selected {
		cfg.workload = w
		rep, err := run(cfg)
		if err != nil {
			return false, err
		}
		if !rep.Correct {
			return false, fmt.Errorf("%s: %d of %d failed", w.name, rep.Failed, rep.Attempted)
		}
		for _, c := range designClaims {
			if c.workload == w.name {
				v := rep.Metrics[c.metric].Value
				row(w.name, fmt.Sprintf("`%s` in [%g, %g]", c.metric, c.lo, c.hi), v, v >= c.lo && v <= c.hi)
			}
		}
		share := rep.table.unattributed / rep.table.handlerMs
		row(w.name, fmt.Sprintf("unattributed within ±%g of handler", unattributedLimit), share, share >= -unattributedLimit && share <= unattributedLimit)
	}
	return ok, nil
}
