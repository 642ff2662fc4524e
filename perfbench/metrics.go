package main

// metricDef names a reported metric. The lists mirror BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the pipeline sees; NOTES.md defines
// each per workload.
var endToEnd = []metricDef{
	{"cells_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// printedOnly are the serving workload's latency and capacity metrics.
// The report prints them with their sample counts, but BENCHMARK.json
// does not gate them: on the reference host they drift with the CPU time
// the hypervisor grants, beyond the largest bound a gated metric may have
// (see NOTES.md).
var printedOnly = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"max_rps", "1/s", "higher"},
}

// perLayer are the traced run's metrics, one group per module. A layer a
// workload does not cross reports 0.
var perLayer = []metricDef{
	{"l96.busy_s", "s", "lower"},
	{"l96.members_integrated", "count", "lower"},
	{"l96.disk_hits", "count", "higher"},
	{"model.fields", "count", "lower"},
	{"model.busy_s", "s", "lower"},
	{"ensemble.busy_s", "s", "lower"},
	{"ensemble.member_passes", "count", "lower"},
	{"compress.busy_s", "s", "lower"},
	{"compress.mb_per_s", "MB/s", "higher"},
	{"compress.ratio", "ratio", "higher"},
	{"decode.busy_s", "s", "lower"},
	{"decode.mb_per_s", "MB/s", "higher"},
	{"decode.chunks", "count", "lower"},
	{"metrics.busy_s", "s", "lower"},
	{"metrics.points", "count", "lower"},
	{"pvt.verifies", "count", "lower"},
	{"pvt.self_s", "s", "lower"},
	{"artifact.puts", "count", "lower"},
	{"artifact.bytes_written", "B", "lower"},
	{"artifact.hits", "count", "higher"},
	{"artifact.misses", "count", "lower"},
	{"artifact.mem_hits", "count", "higher"},
	{"artifact.hit_ratio", "ratio", "higher"},
	{"artifact.claims", "count", "lower"},
	{"artifact.claim_losses", "count", "lower"},
	{"experiments.unit_p50_s", "s", "lower"},
	{"experiments.unit_max_s", "s", "lower"},
	{"experiments.self_s", "s", "lower"},
	{"par.utilization", "ratio", "higher"},
	{"par.tail_s", "s", "lower"},
	{"shard.units_computed", "count", "lower"},
	{"shard.dup_computes", "count", "lower"},
	{"shard.stolen", "count", "lower"},
	{"shard.expired", "count", "lower"},
	{"shard.waits", "count", "lower"},
	{"shard.merge_s", "s", "lower"},
	{"serve.keytable_s", "s", "lower"},
	{"serve.preload_s", "s", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.render_us", "us", "lower"},
	{"serve.resp_hit_share", "ratio", "higher"},
	{"serve.store_hits", "count", "lower"},
	{"serve.computes", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"report.render_s", "s", "lower"},
	{"loadgen.lag_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}
