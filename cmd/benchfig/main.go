// Command benchfig regenerates the paper's evaluation figures (§6) as
// data series printed to stdout, plus the ablation studies listed in
// DESIGN.md. Absolute numbers differ from the paper's 2008 Essbase
// testbed; the shapes (linearity, who wins, where curves converge or
// plateau) are the reproduction target — see EXPERIMENTS.md.
//
// Usage:
//
//	benchfig -fig 11            # perspectives vs. query time (§6.1)
//	benchfig -fig 12            # chunk co-location vs. query time (§6.2)
//	benchfig -fig 13            # varying members vs. query time (§6.3)
//	benchfig -fig overlay-kernel  # overlay write path: per cell vs per slab
//	benchfig -fig rle-scan        # the scan by source chunk representation
//	benchfig -fig plan            # planning cost vs scan cost, by scope size
//	benchfig -fig obs-overhead    # trace-retention cost on the traced replay
//	benchfig -fig ablation-pebble | ablation-mode | ablation-rep
//	benchfig -fig all
//	benchfig -fig 11 -employees 20250 -accounts 100 -scenarios 5  # paper scale
package main

import (
	"flag"
	"fmt"
	"os"

	"whatifolap/internal/bench"
	"whatifolap/internal/chunk"
	"whatifolap/internal/simdisk"
	"whatifolap/internal/workload"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 11, 12, 13, overlay-kernel, rle-scan, plan, obs-overhead, ablation-pebble, ablation-mode, ablation-rep, all")
		reps      = flag.Int("reps", 3, "repetitions per point (fastest wins)")
		employees = flag.Int("employees", 0, "workforce scale override")
		accounts  = flag.Int("accounts", 0, "accounts override")
		scenarios = flag.Int("scenarios", 0, "scenarios override")
		seed      = flag.Int64("seed", 0, "workload seed override")
	)
	flag.Parse()

	cfg := workload.ConfigDefault()
	if *employees > 0 {
		cfg.Employees = *employees
	}
	if *accounts > 0 {
		cfg.Accounts = *accounts
	}
	if *scenarios > 0 {
		cfg.Scenarios = *scenarios
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	needWorkforce := map[string]bool{
		"11": true, "13": true, "overlay-kernel": true,
		"obs-overhead": true, "plan": true,
		"ablation-pebble": true, "ablation-mode": true,
		"ablation-rep": true, "all": true,
	}
	var w *workload.Workforce
	if needWorkforce[*fig] {
		fmt.Fprintf(os.Stderr, "benchfig: generating workforce (%d employees, %d accounts, %d scenarios)...\n",
			cfg.Employees, cfg.Accounts, cfg.Scenarios)
		var err error
		w, err = workload.NewWorkforce(cfg)
		if err != nil {
			fatal(err)
		}
	}

	switch *fig {
	case "11":
		fig11(w, *reps)
	case "12":
		fig12(*reps)
	case "13":
		fig13(w, *reps)
	case "overlay-kernel":
		overlayKernel(w, *reps)
	case "ablation-pebble":
		ablationPebble(w)
	case "ablation-mode":
		ablationMode(w, *reps)
	case "ablation-rep":
		ablationRep(w, *reps)
	case "rle-scan":
		// rle-scan generates its own validity-window cube (FlatMonths,
		// period-fastest chunks), so the shared workforce is not used.
		rleScan(*reps)
	case "plan":
		planCost(w, *reps)
	case "obs-overhead":
		obsOverhead(w, *reps)
	case "all":
		fig11(w, *reps)
		fig12(*reps)
		fig13(w, *reps)
		overlayKernel(w, *reps)
		ablationPebble(w)
		ablationMode(w, *reps)
		ablationRep(w, *reps)
		rleScan(*reps)
		planCost(w, *reps)
		obsOverhead(w, *reps)
	default:
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
}

func fig11(w *workload.Workforce, reps int) {
	fmt.Println("# Fig 11 — number of perspectives vs. query time (§6.1)")
	fmt.Println("# query over all changing employees; strategies: Multiple MDX simulation,")
	fmt.Println("# direct static, direct dynamic forward")
	fmt.Println("perspectives,multiple_mdx_ms,static_ms,forward_ms,sim_chunk_reads,static_chunk_reads")
	rows, err := bench.Fig11(w, 12, reps)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%d,%.3f,%.3f,%.3f,%d,%d\n",
			r.Perspectives, r.MultipleMS, r.StaticMS, r.ForwardMS, r.SimChunkReads, r.StaticChunkReads)
	}
	fmt.Println()
}

func fig12(reps int) {
	fmt.Println("# Fig 12 — related-chunk co-location vs. query time (§6.2)")
	fmt.Println("# single employee with two instances, dynamic forward, 4 perspectives;")
	fmt.Println("# separation grown in multiples of the base; disk cost from the seek model")
	fmt.Println("multiple,separation_chunks,total_chunks,disk_ms,wall_ms")
	rows, err := bench.Fig12(bench.Fig12Defaults(), reps)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%d,%d,%d,%.3f,%.3f\n", r.Multiple, r.SeparationChunks, r.TotalChunks, r.DiskMS, r.WallMS)
	}
	fmt.Println()
}

func fig13(w *workload.Workforce, reps int) {
	fmt.Println("# Fig 13 — varying member instances vs. query time (§6.3)")
	fmt.Println("# static, 4 perspectives {Jan,Apr,Jul,Oct}, scope grown 50..250")
	fmt.Println("members,wall_ms,instances,chunk_reads")
	rows, err := bench.Fig13(w, 50, 250, reps)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%d,%.3f,%d,%d\n", r.Members, r.WallMS, r.Instances, r.ChunksRead)
	}
	fmt.Println()
}

func rleScan(reps int) {
	fmt.Println("# RLE scan — the scan by source chunk representation")
	fmt.Println("# validity-window cube (FlatMonths workforce, period-fastest chunks);")
	fmt.Println("# serial forward over all changing employees, 4 perspectives {Jan,Apr,Jul,Oct};")
	fmt.Println("# every row goes through the slab kernel: dense and sparse chunks move")
	fmt.Println("# slabs of cells, run-encoded chunks move value runs")
	cfg := bench.RleScanConfig()
	fmt.Fprintf(os.Stderr, "benchfig: generating flat-months workforce (%d employees)...\n", cfg.Employees)
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println("representation,store_bytes,dense_chunks,sparse_chunks,run_chunks,wall_ms,scan_ms,cells_relocated,cells_per_sec")
	rows, err := bench.RleScan(w, reps)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%s,%d,%d,%d,%d,%.3f,%.3f,%d,%.0f\n",
			r.Representation, r.StoreBytes, r.DenseChunks, r.SparseChunks, r.RunChunks,
			r.WallMS, r.ScanMS, r.CellsRelocated, r.CellsPerSec)
	}
	fmt.Println()
}

func planCost(w *workload.Workforce, reps int) {
	fmt.Println("# Plan cost — planning vs scanning, by query scope (target: plan_ms < scan_ms)")
	fmt.Println("# extended forward over the first k changing employees, 4 perspectives")
	fmt.Println("# {Jan,Apr,Jul,Oct}, serial; default workforce as generated, and the")
	fmt.Println("# validity-window shape (FlatMonths, [64,12,1,...] chunks, run-encoded);")
	fmt.Println("# pebble_ms is the heuristic alone on the plan's merge graph")
	fmt.Println("shape,members,relevant_chunks,merge_edges,plan_ms,pebble_ms,scan_ms")
	vw, err := workload.NewWorkforce(bench.RleScanConfig())
	if err != nil {
		fatal(err)
	}
	vw.Cube.Store().(*chunk.Store).Settle()
	for _, shape := range []struct {
		name string
		w    *workload.Workforce
	}{{"default", w}, {"vw", vw}} {
		rows, err := bench.PlanCost(shape.w, []int{10, 30, 100, 250}, reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("%s,%d,%d,%d,%.3f,%.3f,%.3f\n", shape.name, r.Members, r.RelevantChunks, r.MergeEdges, r.PlanMS, r.PebbleMS, r.ScanMS)
		}
	}
	fmt.Println()
}

func overlayKernel(w *workload.Workforce, reps int) {
	fmt.Println("# Overlay kernel — relocation write path: chunk-native per cell,")
	fmt.Println("# chunk-native per slab (what the scan does)")
	fmt.Println("# identical relocation stream (dynamic forward over all changing employees,")
	fmt.Println("# 4 perspectives {Jan,Apr,Jul,Oct}) replayed into each overlay store")
	fmt.Println("kernel,cells,wall_ms,cells_per_sec,allocs_per_cell,steady_allocs_per_cell")
	rows, err := bench.RelocationKernel(w, reps)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%s,%d,%.3f,%.0f,%.4f,%.4f\n",
			r.Kernel, r.Cells, r.WallMS, r.CellsPerSec, r.AllocsPerCell, r.SteadyAllocsPerCell)
	}
	fmt.Println()
}

func obsOverhead(w *workload.Workforce, reps int) {
	fmt.Println("# Obs overhead — tail-sampled trace retention on the traced replay")
	fmt.Println("# steady-state traced relocation replay plus one MaybeRetain per op:")
	fmt.Println("# nil ring (retention off), 4MiB ring at 1-in-64 sampling, retain-everything")
	fmt.Println("variant,cells,wall_ms,allocs_per_op,vs_baseline")
	rows, err := bench.ObsOverhead(w, reps)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%s,%d,%.3f,%.2f,%.3f\n", r.Variant, r.Cells, r.WallMS, r.AllocsPerOp, r.VsBaseline)
	}
	fmt.Println()
}

func ablationPebble(w *workload.Workforce) {
	fmt.Println("# Ablation — chunk read order (§5.2, Lemma 5.1)")
	fmt.Println("order,peak_resident_chunks,disk_ms,seek_chunks")
	rows, err := bench.AblationPebbling(w, simdisk.DefaultModel())
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%s,%d,%.3f,%d\n", r.Order, r.PeakChunks, r.DiskMS, r.SeekChunks)
	}
	fmt.Println()
}

func ablationMode(w *workload.Workforce, reps int) {
	fmt.Println("# Ablation — visual vs. non-visual aggregate evaluation (§3.3)")
	fmt.Println("mode,wall_ms")
	rows, err := bench.AblationMode(w, 50, reps)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%s,%.3f\n", r.Mode, r.WallMS)
	}
	fmt.Println()
}

func ablationRep(w *workload.Workforce, reps int) {
	fmt.Println("# Ablation — dense vs. sparse chunk representation")
	fmt.Println("representation,store_bytes,query_ms")
	rows, err := bench.AblationChunkRep(w, reps)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%s,%d,%.3f\n", r.Representation, r.StoreBytes, r.QueryMS)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchfig:", err)
	os.Exit(1)
}
