package main

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names (TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"sss_maxapl_redux_pct", "%"},
	{"model_err_cycles", "cycles"},
	{"stream_dev_apl", "cycles"},
}

// perLayer are the traced run's metrics, reported for every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"service.queue_wait_ms.p50", "ms"},
		{"service.exec_ms.p50", "ms"},
		{"service.http_overhead_ms.p50", "ms"},
		{"service.polls_per_job", "count"},
		{"service.failed_ratio", "fraction"},
	}
	for _, ids := range [][]string{paperIDs, simIDs, churnIDs} {
		for _, id := range ids {
			defs = append(defs, metricDef{"experiments." + id + ".run_ms", "ms"})
		}
	}
	defs = append(defs,
		metricDef{"experiments.encode_ms", "ms"},
		metricDef{"artifact.computed", "count"},
		metricDef{"artifact.mem_hits", "count"},
		metricDef{"artifact.disk_hits", "count"},
		metricDef{"artifact.bypass", "count"},
		metricDef{"artifact.hit_ratio", "fraction"},
		metricDef{"artifact.open_disk_ms", "ms"},
		metricDef{"artifact.disk_get_us.p50", "us"},
		metricDef{"artifact.disk_put_us.p50", "us"},
		metricDef{"artifact.encode_us.p50", "us"},
		metricDef{"artifact.decode_us.p50", "us"},
	)
	for _, a := range mapperAlgs {
		defs = append(defs, metricDef{"mapping." + a.name + ".map_ms", "ms"})
	}
	for _, a := range mapperAlgs {
		defs = append(defs, metricDef{"mapping." + a.name + ".calls", "count"})
	}
	return append(defs,
		metricDef{"core.evaluate_us", "us"},
		metricDef{"core.batch_eval_ns_per_mapping", "ns"},
		metricDef{"sim.rate_driven_ms", "ms"},
		metricDef{"noc.cycles", "count"},
		metricDef{"noc.flits_delivered", "count"},
		metricDef{"noc.ns_per_cycle", "ns"},
		metricDef{"sim.replicas.jobs_failed", "count"},
		metricDef{"sim_flits_per_s", "flits/s"},
		metricDef{"sched.remap_ms.p50", "ms"},
		metricDef{"sched.remap_ms.p99", "ms"},
		metricDef{"sched.place_us.p50", "us"},
		metricDef{"sched.remap_attempts", "count"},
		metricDef{"sched.remap_rejected_ratio", "fraction"},
		metricDef{"sched.migrations", "count"},
		metricDef{"stream_events_per_s", "events/s"},
		metricDef{"workload.generate_ms", "ms"},
		metricDef{"obs.tracing_overhead_pct", "%"},
		metricDef{"host.slowdown", "ratio"},
	)
}()
