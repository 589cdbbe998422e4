package main

// layerMetrics are the per-layer metrics in BENCHMARK.json. Every traced
// run reports all of them; a layer the workload bypasses reports 0.
var layerMetrics = []metricDef{
	{"hypergraph.build_ms", "ms"},
	{"dal.build_ms", "ms"},
	{"dal.store_mb", "MB"},
	{"dal.bitmap_frac", "ratio"},
	{"pattern.parse_us", "us"},
	{"pattern.canon_us", "us"},
	{"oig.compile_ms", "ms"},
	{"oig.plan_ops", "count"},
	{"engine.seed_ms", "ms"},
	{"engine.first_candidates", "count"},
	{"engine.gen_ms", "ms"},
	{"engine.val_ms", "ms"},
	{"engine.candidates", "count"},
	{"engine.embeddings", "count"},
	{"engine.survivor_ratio", "ratio"},
	{"engine.setops", "count"},
	{"intset.kernel_array", "count"},
	{"intset.kernel_bitmap", "count"},
	{"intset.kernel_mixed", "count"},
	{"intset.bitmap_share", "ratio"},
	{"sched.publishes", "count"},
	{"sched.steals", "count"},
	{"sched.idle_spins", "count"},
	{"sched.parallel_eff", "ratio"},
	{"session.plan_hit_ratio", "ratio"},
	{"session.result_hit_ratio", "ratio"},
	{"session.overhead_us", "us"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.overhead_ms_p99", "ms"},
	{"serve.engine_ms_p99", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.rejected", "count"},
	{"serve.truncated", "count"},
	{"serve.sse_lag_ms_p99", "ms"},
	{"stream.eval_ms_p50", "ms"},
	{"stream.eval_ms_p99", "ms"},
	{"stream.maint_ms_p50", "ms"},
	{"stream.snapshot_ms_p50", "ms"},
	{"stream.snapshot_bytes", "bytes"},
	{"stream.compactions", "count"},
	{"stream.live_edges", "count"},
	{"stream.event_p99_ms", "ms"},
	{"cluster.leases", "count"},
	{"cluster.partial", "count"},
	{"cluster.lost", "count"},
	{"cluster.fenced", "count"},
	{"cluster.wal_records", "count"},
	{"cluster.wal_bytes", "bytes"},
	{"cluster.overhead_ratio", "ratio"},
	{"proc.cpu_s", "s"},
	{"proc.alloc_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.outstanding", "count"},
	{"trace.overhead_frac", "ratio"},
}

// traceLayers are the span-name prefixes whose self time a traced run
// reports as self.<layer>_ms. "bench" is the benchmark's own root spans
// (waiting, checking, client-side HTTP).
var traceLayers = []string{
	"bench", "hypergraph", "dal", "pattern", "oig", "engine", "session", "serve", "stream", "cluster",
}

func init() {
	for _, l := range traceLayers {
		layerMetrics = append(layerMetrics, metricDef{"self." + l + "_ms", "ms"})
	}
}

// namedMetrics are the workload-named end-to-end metrics each workload
// prints; the self-test checks every one is emitted with its unit.
var namedMetrics = map[string][]metricDef{
	"mine-batch":  {{"setup_s", "s"}, {"heap_mb", "MB"}, {"mine_s", "s"}},
	"serve-mix":   {{"setup_s", "s"}, {"heap_mb", "MB"}, {"query_p50_ms", "ms"}, {"query_p99_ms", "ms"}, {"max_rate_rps", "req/s"}},
	"stream-feed": {{"setup_s", "s"}, {"heap_mb", "MB"}, {"batch_ack_p50_ms", "ms"}, {"batch_ack_p99_ms", "ms"}, {"event_p99_ms", "ms"}, {"edges_per_s", "1/s"}},
	"cluster-job": {{"setup_s", "s"}, {"heap_mb", "MB"}, {"jobs_s", "s"}},
}
