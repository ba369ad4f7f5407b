package main

// metricDecl names one reported metric. BENCHMARK.json declares the
// same names with direction and bound; a test keeps the two in step.
type metricDecl struct{ name, unit string }

// endToEnd is what a client of whatifd sees, measured by the closed
// loop with no tracing. Every workload reports every one of them.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"qps", "ops/s"},
	{"lat_p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MB"},
}

// perLayer is reported by a traced run. The first block is client-side
// numbers that cannot be end-to-end metrics, which every workload must
// report and hold within a bound: the tail latency, which a noisy
// neighbour of this host moves by a fifth between otherwise equal
// runs, and numbers only some workloads produce (a workload without
// cache hits has no hit latency). They come from the closed-loop half
// of the traced run. The rest is named after the module it measures.
var perLayer = []metricDecl{
	{"lat_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"commit_p50_ms", "ms"},
	{"disk_bytes_per_cell", "B"},

	{"server.transport_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.unattributed_ms", "ms"},
	{"server.hit_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.overloaded", "count"},
	{"server.resp_bytes", "B"},

	{"mdx.normalize_ms", "ms"},
	{"mdx.parse_ms", "ms"},
	{"mdx.eval_ms", "ms"},
	{"mdx.project_ms", "ms"},
	{"mdx.lower_ms", "ms"},
	{"mdx.query_bytes", "B"},

	{"perspective.apply_ms", "ms"},
	{"perspective.source_instances", "count"},

	{"core.plan_ms", "ms"},
	{"core.exec_ms", "ms"},
	{"core.scan_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.plan_share", "ratio"},
	{"core.relevant_chunks", "count"},
	{"core.chunks_read", "count"},
	{"core.cells_scanned", "count"},
	{"core.cells_relocated", "count"},
	{"core.merge_edges", "count"},
	{"core.merge_groups", "count"},
	{"core.peak_chunks", "count"},
	{"core.scan_amplification", "ratio"},

	{"pebble.schedule_ms", "ms"},
	{"pebble.nodes", "count"},
	{"pebble.edges", "count"},
	{"pebble.peak", "count"},
	{"pebble.peak_over_bound", "ratio"},

	{"chunk.read_ms", "ms"},
	{"chunk.iterate_ms", "ms"},
	{"chunk.pool_faults", "count"},
	{"chunk.pool_evictions", "count"},
	{"chunk.pool_hit_ratio", "ratio"},
	{"chunk.resident_bytes", "B"},
	{"chunk.store_bytes", "B"},
	{"chunk.run_chunks", "count"},
	{"chunk.dense_chunks", "count"},
	{"chunk.sparse_chunks", "count"},
	{"chunk.encode_runs_ms", "ms"},

	{"segment.create_ms", "ms"},
	{"segment.open_ms", "ms"},
	{"segment.read_chunk_us", "us"},
	{"segment.file_bytes", "B"},

	{"scenario.apply_ms", "ms"},
	{"scenario.view_ms", "ms"},
	{"scenario.fork_ms", "ms"},
	{"scenario.diff_ms", "ms"},
	{"scenario.materialize_ms", "ms"},
	{"scenario.layers", "count"},
	{"scenario.query_ms_per_layer", "ms/layer"},

	{"workload.gen_ms", "ms"},
	{"workload.cells", "count"},
}

// metricValue is one metric of a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds a result's metric map: every declared metric, with 0 for
// one the workload does not produce.
func fill(decls []metricDecl, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}
