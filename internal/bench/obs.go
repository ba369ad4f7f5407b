package bench

import (
	"whatifolap/internal/obs"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// ObsRow is one line of the observability-overhead comparison: the
// steady-state traced replay run under increasingly aggressive trace
// retention policies.
type ObsRow struct {
	Variant     string
	Cells       int
	WallMS      float64
	AllocsPerOp float64
	// VsBaseline is this variant's fastest wall time over the traced
	// baseline's — the multiplicative cost of the retention decision.
	VsBaseline float64
}

// ObsOverhead measures what the tail-sampling retention hook adds to an
// already-traced query. The baseline is the steady-state traced replay
// (live recorder, warm destination overlay — the same work
// BenchmarkTraceOn times); each variant appends the per-query
// MaybeRetain decision under a different policy:
//
//   - retain-off: nil ring — retention disabled, the default-off path
//     every query pays. Must be 0 allocs/op.
//   - retain-1-in-64: live 4MiB ring sampling one healthy query in 64
//     (the server default), so most ops take the reject path and a few
//     pay the span-copy.
//   - retain-all: every op snapshots its spans into the ring — the
//     worst case, bounding what "slow query storm" retention costs.
func ObsOverhead(w *workload.Workforce, reps int) ([]ObsRow, error) {
	k, err := NewKernel(w)
	if err != nil {
		return nil, err
	}
	tr := trace.New(8192)
	ov := k.NewOverlay()
	k.ReplayTraced(nil, trace.SpanRef{}, ov) // warm destination chunks

	meta := obs.TraceMeta{QueryIdentity: obs.QueryIdentity{Cube: "wf", Query: "bench", LatencyMs: 1}}
	run := func(ring *obs.TraceRing) func() error {
		return func() error {
			tr.Reset()
			root := tr.Start(trace.SpanRef{}, "eval")
			k.ReplayTraced(tr, root, ov)
			root.End()
			ring.MaybeRetain(meta, tr.Spans)
			return nil
		}
	}
	variants := []struct {
		name string
		fn   func() error
	}{
		{"traced-baseline", func() error {
			tr.Reset()
			root := tr.Start(trace.SpanRef{}, "eval")
			k.ReplayTraced(tr, root, ov)
			root.End()
			return nil
		}},
		{"retain-off", run(nil)},
		{"retain-1-in-64", run(obs.NewTraceRing(4<<20, 64))},
		{"retain-all", run(obs.NewTraceRing(4<<20, 1))},
	}
	var rows []ObsRow
	var baseline float64
	for _, v := range variants {
		if err := v.fn(); err != nil { // warm caches
			return nil, err
		}
		wall, err := timeIt(reps, v.fn)
		if err != nil {
			return nil, err
		}
		row := ObsRow{
			Variant:     v.name,
			Cells:       k.Cells(),
			WallMS:      wall,
			AllocsPerOp: allocsPerRun(5, func() { v.fn() }),
		}
		if v.name == "traced-baseline" {
			baseline = wall
		}
		if baseline > 0 {
			row.VsBaseline = wall / baseline
		}
		rows = append(rows, row)
	}
	return rows, nil
}
