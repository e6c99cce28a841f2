package main

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run prints all of them; a layer the workload
// never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"lang.parse_ms", "ms"},
	{"opt.compile_ms", "ms"},
	{"search.busy_ms", "ms"},
	{"costgraph.busy_ms", "ms"},
	{"opt.options_found", "count"},
	{"opt.options_selected", "count"},
	{"engine.exec_ms", "ms"},
	{"engine.ops", "count"},
	{"engine.flop", "count"},
	{"engine.sim_s", "s"},
	{"matrix.gemm_dense_ms", "ms"},
	{"matrix.gemm_dense_flop", "count"},
	{"matrix.gemm_dense_bytes_computed", "bytes"},
	{"matrix.spmm_csr_ms", "ms"},
	{"matrix.spmm_csr_flop", "count"},
	{"matrix.spmm_csr_bytes_computed", "bytes"},
	{"matrix.tsmm_ms", "ms"},
	{"matrix.tsmm_flop", "count"},
	{"matrix.tsmm_bytes_computed", "bytes"},
	{"matrix.ewise_ms", "ms"},
	{"matrix.ewise_flop", "count"},
	{"matrix.ewise_bytes_computed", "bytes"},
	{"matrix.compact_ms", "ms"},
	{"matrix.compact_bytes_computed", "bytes"},
	{"matrix.nnz_ms", "ms"},
	{"matrix.nnz_bytes_computed", "bytes"},
	{"matrix.alloc_bytes_per_call", "bytes"},
	{"integrity.digest_ms", "ms"},
	{"integrity.digest_bytes_computed", "bytes"},
	{"serve.compile_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.hash_ms", "ms"},
	{"serve.plan_hit_ratio", "ratio"},
	{"serve.inter_hit_ratio", "ratio"},
	{"serve.executions_per_query", "ratio"},
	{"serve.mqo_shared_hits", "count"},
	{"serve.rejected", "count"},
	{"httpapi.encode_ms", "ms"},
	{"httpapi.response_bytes", "bytes"},
	{"gateway.overhead_p50_ms", "ms"},
	{"gateway.overhead_p90_ms", "ms"},
	{"gateway.inval_ms", "ms"},
	{"gateway.wire_attempts_per_query", "ratio"},
	{"gateway.wire_retries", "count"},
	{"gateway.quota_rejected", "count"},
	{"gateway.spilled", "count"},
	{"loadgen.lag_p90_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_max_ms", "ms"},
	{"trace.eps_violations", "count"},
	{"trace.requests", "count"},
	{"samples.solve", "count"},
	{"samples.lat", "count"},
}

// setTraceAccounting reports the traced run's own health: the tracing
// overhead (p50 latency of the traced level over the untraced one, run
// back to back on the same inputs), the eps accounting check, and the
// sample counts behind the timings. A failed accounting check fails the
// run.
func setTraceAccounting(rep *report, acc accounting, base, traced *level) {
	baseLat, _ := latencies(base.samples)
	lat, solve := latencies(traced.samples)
	b, t := quantile(baseLat, 0.5), quantile(lat, 0.5)
	rep.note("trace overhead: p50 latency %.3f ms traced vs %.3f ms untraced (n=%d, %d)", t, b, len(lat), len(baseLat))
	if b > 0 {
		rep.set("trace.overhead_pct", "%", (t/b-1)*100)
	}
	rep.set("trace.unattributed_max_ms", "ms", acc.unattribMaxMS)
	rep.set("trace.eps_violations", "count", float64(acc.violations))
	rep.set("trace.requests", "count", float64(acc.requests))
	rep.set("samples.solve", "count", float64(len(solve)))
	rep.set("samples.lat", "count", float64(len(lat)))
	rep.set("loadgen.lag_p90_ms", "ms", quantile(traced.lagMS, 0.9))
	if acc.violations > 0 {
		rep.mismatch("trace accounting: %d of %d requests outside eps (max(%v, %g of wall)); first: %s",
			acc.violations, acc.requests, epsAbs, epsRel, acc.firstErr)
	}
}

// fillPerLayer gives every per-layer metric the workload did not set a 0.
func fillPerLayer(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, m.unit, 0)
		}
	}
}
