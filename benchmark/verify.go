package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"whatifolap/internal/cube"
	"whatifolap/internal/mdx"
	"whatifolap/internal/result"
	"whatifolap/internal/workload"
)

// referenceCube is the independent evaluator's input: the cube
// generated again from the seed, its cells copied into a map-backed
// cube.MemStore. mdx evaluates what-if clauses over such a cube with
// the algebra operators, sharing no code with the chunk engine.
func referenceCube(cfg workload.WorkforceConfig) (*cube.Cube, error) {
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		return nil, err
	}
	cells := cube.NewMemStore(w.Cube.NumDims())
	w.Cube.Store().NonNull(func(addr []int, v float64) bool {
		cells.Set(addr, v)
		return true
	})
	ref := cube.NewWithStore(cells, w.Cube.Dims()...)
	for _, b := range w.Cube.Bindings() {
		if err := ref.AddBinding(b); err != nil {
			return nil, err
		}
	}
	ref.SetRules(w.Cube.Rules())
	return ref, nil
}

// evaluate runs one query text against a cube outside the server.
func evaluate(c *cube.Cube, query string) (*result.Grid, error) {
	q, err := mdx.Parse(query)
	if err != nil {
		return nil, err
	}
	return mdx.NewEvaluator(c).RunQueryWith(mdx.RunContext{}, q)
}

// sameGrid compares a served response body with a reference grid:
// labels exactly, cells with relative tolerance 1e-9, null only
// against null.
func sameGrid(body []byte, want *result.Grid) error {
	var got struct {
		Columns []string     `json:"columns"`
		Rows    []string     `json:"rows"`
		Values  [][]*float64 `json:"values"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if !slices.Equal(got.Columns, want.ColLabels) || !slices.Equal(got.Rows, want.RowLabels) {
		return fmt.Errorf("axes differ: served %dx%d, reference %dx%d", len(got.Rows), len(got.Columns), len(want.RowLabels), len(want.ColLabels))
	}
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("served %d value rows, reference %d", len(got.Values), len(want.Values))
	}
	for i, row := range got.Values {
		if len(row) != len(want.Values[i]) {
			return fmt.Errorf("row %d: served %d cells, reference %d", i, len(row), len(want.Values[i]))
		}
		for j, cell := range row {
			ref := want.Values[i][j]
			switch {
			case cell == nil && math.IsNaN(ref):
			case cell == nil || math.IsNaN(ref):
				return fmt.Errorf("cell (%s, %s): served %v, reference %v", want.RowLabels[i], want.ColLabels[j], cell, ref)
			case math.Abs(*cell-ref) > 1e-9*math.Max(math.Abs(*cell), math.Abs(ref)):
				return fmt.Errorf("cell (%s, %s): served %v, reference %v", want.RowLabels[i], want.ColLabels[j], *cell, ref)
			}
		}
	}
	return nil
}

// sampleServed draws n served queries from the clients' reservoirs,
// taking op classes and clients in turn so every class is covered.
func sampleServed(clients []*client, n int) []served {
	classes := map[string]bool{}
	for _, c := range clients {
		for class := range c.kept {
			classes[class] = true
		}
	}
	names := sortedKeys(classes)
	var out []served
	for i := 0; i < keptPerClass && len(out) < n; i++ {
		for _, class := range names {
			for _, c := range clients {
				if i < len(c.kept[class]) && len(out) < n {
					out = append(out, c.kept[class][i])
				}
			}
		}
	}
	return out
}

// verifyServed evaluates each sampled query on the reference cube and
// compares the grid with the body the server sent during the window.
// It returns one message per mismatch.
func verifyServed(cfg workload.WorkforceConfig, sample []served, workers int) ([]string, error) {
	if len(sample) == 0 {
		return nil, nil
	}
	ref, err := referenceCube(cfg)
	if err != nil {
		return nil, err
	}
	// The reference cube is only read, so evaluations can share it.
	msgs := make([]string, len(sample))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want, err := evaluate(ref, sample[i].op.query)
				if err == nil {
					err = sameGrid(sample[i].body, want)
				}
				if err != nil {
					msgs[i] = fmt.Sprintf("%s: %v: %.160s", sample[i].op.class, err, sample[i].op.query)
				}
			}
		}()
	}
	for i := range sample {
		next <- i
	}
	close(next)
	wg.Wait()
	var bad []string
	for _, m := range msgs {
		if m != "" {
			bad = append(bad, m)
		}
	}
	return bad, nil
}

// verifyScenario runs one more session through the server on a fresh
// client and compares n of its query replies, evenly spaced, with the
// same query evaluated over Scenario.Materialize() of the scenario as it
// stood: a flattened copy that reads through no layer chain.
func verifyScenario(fx *fixture, c *client, n int) (checked int, bad []string) {
	var ops []op
	for {
		o := c.stream.next()
		ops = append(ops, o)
		if o.kind == opDiscard && o.slot == slotCur {
			break
		}
	}
	queries := 0
	for _, o := range ops {
		if o.kind == opQuery {
			queries++
		}
	}
	every := max(1, queries/n)
	seen := 0
	for _, o := range ops {
		out := c.do(o)
		if !out.ok() {
			checked++
			bad = append(bad, fmt.Sprintf("%s: status %d err %v", o.class, out.status, out.err))
			continue
		}
		if o.kind != opQuery {
			continue
		}
		seen++
		if seen%every != 0 {
			continue
		}
		checked++
		sc, ok := fx.svc.Scenarios().Get(c.ids[o.slot])
		if !ok {
			bad = append(bad, "scenario "+c.ids[o.slot]+" is gone")
			continue
		}
		flat, err := sc.Materialize()
		var want *result.Grid
		if err == nil {
			want, err = evaluate(flat, o.query)
		}
		if err == nil {
			err = sameGrid(out.body, want)
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v: %.160s", o.class, err, o.query))
		}
	}
	return checked, bad
}
