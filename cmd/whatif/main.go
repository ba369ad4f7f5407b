// Command whatif runs extended-MDX what-if queries against a cube.
//
// The cube comes from one of three sources: the paper's running example
// (-paper), a generated workforce dataset (-workforce), or a dump file
// written by cubegen (-load). Queries are read from -query, from files
// given as arguments, or interactively from stdin (one query per
// semicolon).
//
// Examples:
//
//	whatif -paper -query 'WITH PERSPECTIVE {(Feb),(Apr)} FOR Organization
//	    DYNAMIC FORWARD VISUAL
//	    SELECT {Descendants([Time],1,SELF_AND_AFTER)} ON COLUMNS,
//	           {[PTE].Children} ON ROWS
//	    FROM W WHERE ([Location].[NY],[Measures].[Salary])'
//
//	cubegen -kind workforce -out wf.dump
//	whatif -load wf.dump -chunked < queries.mdx
//
// With -top the command is instead a live health view over a running
// whatifd: it polls GET /metrics/history on -addr every -top-interval
// and repaints QPS, latency quantiles, cache hit ratio, scan
// amplification and buffer-pool pressure with sparklines.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	olap "whatifolap"
	"whatifolap/internal/mdx"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

func main() {
	var (
		paper     = flag.Bool("paper", false, "use the paper's Fig. 1/2 example warehouse")
		wf        = flag.Bool("workforce", false, "generate the default workforce dataset")
		load      = flag.String("load", "", "load a cube dump written by cubegen")
		chunked   = flag.Bool("chunked", true, "back the cube with chunked storage (enables the engine)")
		query     = flag.String("query", "", "run a single query and exit")
		showStats = flag.Bool("stats", false, "print engine statistics after each query")
		explain   = flag.Bool("explain", false, "print the evaluation path and physical plan before each result")
		showTrace = flag.Bool("trace", false, "print the span tree of each query's execution")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (e.g. 5s); 0 disables")
		scenFile  = flag.String("scenario", "", "apply a JSON scenario edit script before querying (array of edits or {\"edits\": [...]})")
		topMode   = flag.Bool("top", false, "live terminal health view over a running whatifd's /metrics/history")
		topAddr   = flag.String("addr", "http://127.0.0.1:8080", "daemon base URL for -top")
		topEvery  = flag.Duration("top-interval", time.Second, "refresh cadence for -top")
	)
	flag.Parse()

	if *topMode {
		if err := runTop(*topAddr, *topEvery, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "whatif:", err)
			os.Exit(1)
		}
		return
	}

	c, err := openCube(*paper, *wf, *load, *chunked)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatif:", err)
		os.Exit(1)
	}
	if *scenFile != "" {
		// Queries run against the scenario's layered view: base chunks
		// resolved through the edit layers, nothing copied.
		c, err = applyScenarioScript(c, *scenFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatif:", err)
			os.Exit(1)
		}
	}
	ev := olap.NewEvaluator(c)

	run := func(src string) {
		src = strings.TrimSpace(src)
		if src == "" {
			return
		}
		q, err := mdx.Parse(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatif:", err)
			return
		}
		// The deadline feeds the same cancellation mechanism the query
		// daemon uses: checked at chunk-iteration boundaries in the
		// engine and between grid rows.
		var rc olap.RunContext
		if *timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			rc.Ctx = ctx
		}
		// An EXPLAIN-prefixed query dispatches like in the daemon: plain
		// EXPLAIN plans without executing; EXPLAIN ANALYZE is an ordinary
		// run under a span trace that also prints the analysis.
		if q.Explain && !q.Analyze {
			ex, err := ev.Explain(q)
			if err != nil {
				fmt.Fprintln(os.Stderr, "whatif:", err)
				return
			}
			fmt.Print(ex)
			fmt.Println()
			return
		}
		if *explain {
			if ex, err := ev.Explain(q); err == nil {
				fmt.Print(ex)
			}
		}
		var tr *trace.Trace
		var root trace.SpanRef
		if *showTrace || q.Analyze {
			tr = trace.New(0)
			root = tr.Start(trace.SpanRef{}, "eval")
			base := rc.Ctx
			if base == nil {
				base = context.Background()
			}
			rc.Ctx = trace.WithSpan(trace.NewContext(base, tr), root)
		}
		grid, stats, ps, err := ev.RunQueryProjectedWith(rc, q)
		root.End()
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatif:", err)
			return
		}
		fmt.Print(grid)
		switch {
		case q.Analyze:
			fmt.Print(mdx.RenderAnalyze(tr, stats, ps))
		case *showTrace:
			fmt.Print(tr.Render())
		}
		if *showStats {
			fmt.Printf("-- scope=%d members, instances=%d, chunks read=%d, cells relocated=%d, merge edges=%d, peak resident=%d\n",
				stats.MembersInScope, stats.SourceInstances, stats.ChunksRead,
				stats.CellsRelocated, stats.MergeEdges, stats.PeakResidentChunks)
			fmt.Printf("-- groups=%d, plan=%.2fms, scan=%.2fms, project=%.2fms\n",
				stats.MergeGroups, stats.PlanMs, stats.ScanMs, stats.ProjectMs)
		}
		fmt.Println()
	}

	switch {
	case *query != "":
		run(*query)
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "whatif:", err)
				os.Exit(1)
			}
			for _, src := range strings.Split(string(data), ";") {
				run(src)
			}
		}
	default:
		repl(os.Stdin, run)
	}
}

// applyScenarioScript loads a JSON edit script — a bare array of edits
// or {"edits": [...]} — applies it as one scenario batch over the cube,
// and returns the scenario's layered view for querying.
func applyScenarioScript(c *olap.Cube, path string) (*olap.Cube, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var edits []olap.ScenarioEdit
	if err := json.Unmarshal(data, &edits); err != nil {
		var wrapped struct {
			Edits []olap.ScenarioEdit `json:"edits"`
		}
		if err2 := json.Unmarshal(data, &wrapped); err2 != nil {
			return nil, fmt.Errorf("scenario script %s: %w", path, err)
		}
		edits = wrapped.Edits
	}
	s, err := olap.NewScenario("cli", c)
	if err != nil {
		return nil, err
	}
	if _, err := s.Apply(edits); err != nil {
		return nil, err
	}
	view, _, err := s.View()
	if err != nil {
		return nil, err
	}
	info := s.Info()
	fmt.Fprintf(os.Stderr, "whatif: scenario script applied: %d cells overridden, %d new members\n",
		info.CellsOverridden, info.NewMembers)
	return view, nil
}

func openCube(paper, wf bool, load string, chunked bool) (*olap.Cube, error) {
	switch {
	case load != "":
		var chunkDims []int
		if chunked {
			chunkDims = []int{}
		}
		return workload.LoadFile(load, chunkDims)
	case wf:
		w, err := olap.NewWorkforce(olap.WorkforceDefault())
		if err != nil {
			return nil, err
		}
		return w.Cube, nil
	case paper:
		if chunked {
			return olap.PaperWarehouseChunked(), nil
		}
		return olap.PaperWarehouse(), nil
	default:
		return nil, fmt.Errorf("choose a cube source: -paper, -workforce or -load FILE")
	}
}

func repl(r io.Reader, run func(string)) {
	fmt.Println("whatif: enter extended-MDX queries terminated by ';' (Ctrl-D to exit)")
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			buf.WriteString(line[:i])
			run(buf.String())
			buf.Reset()
			buf.WriteString(line[i+1:])
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	if strings.TrimSpace(buf.String()) != "" {
		run(buf.String())
	}
}
