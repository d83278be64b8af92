package main

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics every workload reports untraced. serve-live
// measures run_rel, shuffle_bytes and alloc_bytes on its cold mining jobs.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_rel", "ratio", "lower"},
	{"shuffle_bytes", "bytes", "lower"},
	{"alloc_bytes", "bytes", "lower"},
	{"peak_rss_bytes", "bytes", "lower"},
}

// layerDefs are the metrics a traced run reports. A layer that does not run
// in a workload reports 0.
var layerDefs = []metricDef{
	{"seqdb.decode_s", "s", "lower"},
	{"seqdb.items_per_s", "1/s", "higher"},
	{"flist.job_s", "s", "lower"},
	{"flist.build_s", "s", "lower"},
	{"flist.frequent_items", "count", "lower"},
	{"rewrite.s", "s", "lower"},
	{"rewrite.calls", "count", "lower"},
	{"rewrite.items_out", "count", "lower"},
	{"rewrite.nonempty_ratio", "ratio", "higher"},
	{"shuffle.map_s", "s", "lower"},
	{"shuffle.merge_s", "s", "lower"},
	{"shuffle.records", "count", "lower"},
	{"shuffle.agg_ratio", "ratio", "lower"},
	{"spill.runs", "count", "lower"},
	{"spill.bytes", "bytes", "lower"},
	{"spill.s", "s", "lower"},
	{"mapreduce.sim_s", "s", "lower"},
	{"partition.count", "count", "lower"},
	{"partition.max_seqs", "count", "lower"},
	{"partition.skew", "ratio", "lower"},
	{"miner.s", "s", "lower"},
	{"miner.explored", "count", "lower"},
	{"miner.output", "count", "lower"},
	{"miner.output_ratio", "ratio", "higher"},
	{"restrict.s", "s", "lower"},
	{"restrict.kept_ratio", "ratio", "lower"},
	{"translate.s", "s", "lower"},
	{"pindex.build_s", "s", "lower"},
	{"pindex.bytes", "bytes", "lower"},
	{"pindex.search_us", "us", "lower"},
	{"encode.s", "s", "lower"},
	{"encode.bytes", "bytes", "lower"},
	{"http.mine_ms", "ms", "lower"},
	{"http.append_ms", "ms", "lower"},
	{"http.patterns_ms", "ms", "lower"},
	{"http.subscribe_first_ms", "ms", "lower"},
	{"job.queue_ms", "ms", "lower"},
	{"job.run_ms", "ms", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"delta.reused_ratio", "ratio", "higher"},
	{"server.mines_run_per_append", "count", "lower"},
	{"serve.delta_job_s", "s", "lower"},
	{"serve.append_visible_s", "s", "lower"},
	{"serve.query_p50_ms", "ms", "lower"},
	{"serve.query_p99_ms", "ms", "lower"},
	{"serve.query_max_rps", "1/s", "higher"},
	{"run_s", "s", "lower"},
	{"trace.run_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// layerMetrics lists every per-layer metric from vals, 0 where a layer did
// not run.
func layerMetrics(vals map[string]float64) []metric {
	out := make([]metric, len(layerDefs))
	for i, d := range layerDefs {
		out[i] = metric{d.name, vals[d.name], d.unit}
	}
	return out
}
