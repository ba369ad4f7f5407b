package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, w *workloadSpec, traced bool) runConfig {
	return runConfig{
		workload: w, scale: scales["tiny"], seed: 1, traced: traced,
		window: 300 * time.Millisecond, tmpRoot: t.TempDir(), log: &bytes.Buffer{},
	}
}

func requireEmptyDir(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("run left %d entries in its temp root, first %s", len(left), left[0].Name())
	}
}

// TestRunSmokeConcurrent runs every workload in both modes at the tiny
// scale: concurrent closed-loop clients against a live server, the
// traced pass, and verification against the independent evaluator.
func TestRunSmokeConcurrent(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, w, traced)
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed\n%s", w.name, traced, rep.Correct, rep.Failed, rep.Attempted, cfg.log)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(rep.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(rep.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", w.name, traced, d.name, m, ok, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				sum := rep.table.unattributed
				for _, r := range rep.table.rows {
					sum += r.ms
				}
				if rep.table.ops == 0 || math.Abs(sum-rep.table.handlerMs) > 1e-9 {
					t.Errorf("%s: layer rows + unattributed = %v over %d ops, want server.handler_ms = %v", w.name, sum, rep.table.ops, rep.table.handlerMs)
				}
				if len(rep.spans) == 0 {
					t.Errorf("%s: traced run kept no spans", w.name)
				}
			}
			requireEmptyDir(t, cfg.tmpRoot)
		}
	}
}

// TestRunFailureCleansUp drives a workload whose every request is
// refused: the run must end in an error and still remove its data
// directory.
func TestRunFailureCleansUp(t *testing.T) {
	broken := &workloadSpec{name: "broken", clients: 1, shape: shapeWF, tier: tierPersisted,
		ops: func(*stream) func() op {
			return func() op { return op{kind: opQuery, class: "bad", query: "SELECT nonsense"} }
		}}
	cfg := tinyConfig(t, broken, false)
	if _, err := run(cfg); err == nil {
		t.Error("run of a workload of malformed queries succeeded")
	}
	requireEmptyDir(t, cfg.tmpRoot)
}

func opSequence(t *testing.T, w *workloadSpec, seed int64) string {
	fx, err := setUp(scales["tiny"], w.shape, tierResident, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	var b strings.Builder
	for client := 0; client <= w.clients; client++ {
		s := newStream(w, fx.info, scales["tiny"], seed, client, w.clients+1)
		for i := 0; i < 300; i++ {
			b.WriteString(s.next().String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestOpSequencesComeFromTheSeed checks that the seed alone decides
// what is asked of the server.
func TestOpSequencesComeFromTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, again, other := opSequence(t, w, 1), opSequence(t, w, 1), opSequence(t, w, 2)
		if a != again {
			t.Errorf("%s: two generations from seed 1 differ", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 generate the same ops", w.name)
		}
	}
}

// TestManifestDeclaresWhatRunsEmit keeps BENCHMARK.json and the metric
// tables in this package in step.
func TestManifestDeclaresWhatRunsEmit(t *testing.T) {
	type entry struct{ Name, Unit string }
	var man struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &man); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []entry, emitted []metricDecl) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d, runs emit %d", kind, len(declared), len(emitted))
			return
		}
		for i, d := range emitted {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %+v, runs emit %+v", kind, i, declared[i], d)
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd)
	same("per_layer", man.PerLayer, perLayer)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, man.Workloads[i].Name, w.name)
		}
	}
}

// TestCompareVerdicts feeds -compare runs with known relations.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps, p50 []float64) string {
		path := filepath.Join(dir, name)
		b, err := json.Marshal(runsFile{Runs: map[string]map[string][]float64{
			"narrow-mix": {"qps": qps, "lat_p50_ms": p50}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 100, 99, 100}
	base := write("base.json", steady, steady)
	cases := []struct {
		name      string
		qps, p50  []float64
		want      [2]string // verdicts for qps, lat_p50_ms
		wantWorse bool
	}{
		{"same", steady, steady, [2]string{"same", "same"}, false},
		{"slower", []float64{70, 71, 70, 69, 70}, []float64{140, 141, 140, 139, 140}, [2]string{"worse", "worse"}, true},
		{"faster", []float64{120, 121, 120, 119, 120}, []float64{80, 81, 80, 79, 80}, [2]string{"better", "better"}, false},
		{"noisy", []float64{60, 140, 100, 80, 120}, []float64{60, 140, 100, 80, 120}, [2]string{"unresolved", "unresolved"}, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		worse, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), base, write(c.name+".json", c.qps, c.p50))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v", c.name, worse, c.wantWorse)
		}
		for i, metric := range []string{"qps", "lat_p50_ms"} {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.Contains(line, " "+metric+" ") {
					found = strings.Contains(line, "  "+c.want[i]+" (")
				}
			}
			if !found {
				t.Errorf("%s: %s verdict is not %q:\n%s", c.name, metric, c.want[i], out.String())
			}
		}
	}
}
