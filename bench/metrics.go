package main

// metric names one number the benchmark prints. The two tables below are the
// benchmark's whole vocabulary; BENCHMARK.json lists exactly these names,
// units and directions (a unit test compares the two), and later issues cite
// results as workload/name.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// The timing bounds are the widest the contract allows. The reference host
// drifts: while this benchmark was written the same binary read 820 to 980
// req/s on edge_f64 between consecutive runs and its rounds 580 to 1080
// within an hour, CPU time per request rising exactly as throughput fell, so
// a tenth cannot be told from the host on one run. The counts below repeat
// to four digits and carry the tight bounds.
var endToEnd = []metric{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"infer_p50_ms", "ms", "lower", 0.25},
	{"infer_p95_ms", "ms", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.02},
	// Exact in practice (the guard rails require every request of a workload
	// to move the same bytes); one part in a thousand is the tightest bound
	// that still survives a float round trip through the driver.
	{"wire_bytes_per_req", "B", "lower", 0.001},
	{"live_heap_mb", "MB", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metric{
	{name: "tensor.conv_f64_us", unit: "us", better: "lower"},
	{name: "tensor.conv_f32_us", unit: "us", better: "lower"},
	{name: "tensor.matmul_f64_us", unit: "us", better: "lower"},
	{name: "tensor.matmul_f32_us", unit: "us", better: "lower"},
	{name: "tensor.conv_f64_b8_us", unit: "us", better: "lower"},
	{name: "tensor.conv_f32_b8_us", unit: "us", better: "lower"},
	{name: "tensor.conv_flops", unit: "count", better: "lower"},
	{name: "tensor.conv_bytes", unit: "B", better: "lower"},

	{name: "nn.body_f64_us", unit: "us", better: "lower"},
	{name: "nn.body_f32_us", unit: "us", better: "lower"},
	{name: "nn.body_f64_b8_us", unit: "us", better: "lower"},
	{name: "nn.body_f32_b8_us", unit: "us", better: "lower"},
	{name: "nn.body_allocs", unit: "count", better: "lower"},
	{name: "nn.scratch_kb", unit: "KB", better: "lower"},
	{name: "nn.f32_ratio", unit: "ratio", better: "lower"},

	{name: "ensemble.client_features_us", unit: "us", better: "lower"},
	{name: "ensemble.select_tail_us", unit: "us", better: "lower"},
	{name: "ensemble.server_compute_us", unit: "us", better: "lower"},
	{name: "ensemble.clone_bodies_ms", unit: "ms", better: "lower"},
	{name: "ensemble.rotate_ms", unit: "ms", better: "lower"},

	{name: "comm.client_us", unit: "us", better: "lower"},
	{name: "comm.roundtrip_us", unit: "us", better: "lower"},
	{name: "comm.stage_decode_us", unit: "us", better: "lower"},
	{name: "comm.stage_queue_us", unit: "us", better: "lower"},
	{name: "comm.stage_forward_us", unit: "us", better: "lower"},
	{name: "comm.stage_encode_us", unit: "us", better: "lower"},
	{name: "comm.wire_residual_us", unit: "us", better: "lower"},
	{name: "comm.bytes_up", unit: "B", better: "lower"},
	{name: "comm.bytes_down", unit: "B", better: "lower"},
	{name: "comm.dial_ms", unit: "ms", better: "lower"},
	{name: "comm.control_plane_pct", unit: "%", better: "lower"},

	{name: "shard.stage_head_us", unit: "us", better: "lower"},
	{name: "shard.stage_scatter_us", unit: "us", better: "lower"},
	{name: "shard.stage_tail_us", unit: "us", better: "lower"},
	{name: "shard.scatter_overhead_us", unit: "us", better: "lower"},
	{name: "shard.requests_total", unit: "count", better: "lower"},
	{name: "shard.failures_total", unit: "count", better: "lower"},
	{name: "shard.hedged_total", unit: "count", better: "lower"},
	{name: "shard.short_circuits_total", unit: "count", better: "lower"},

	{name: "registry.publish_ms", unit: "ms", better: "lower"},
	{name: "registry.open_load_ms", unit: "ms", better: "lower"},
	{name: "registry.rotate_ms", unit: "ms", better: "lower"},
	{name: "registry.resolve_ns", unit: "ns", better: "lower"},
	{name: "registry.post_rotate_first_ms", unit: "ms", better: "lower"},

	{name: "privacy.charge_ns", unit: "ns", better: "lower"},
	{name: "privacy.charge_allocs", unit: "count", better: "lower"},
	{name: "privacy.noised_total", unit: "count", better: "lower"},
	{name: "privacy.refused_total", unit: "count", better: "lower"},
	{name: "trace.record_ns", unit: "ns", better: "lower"},
	{name: "trace.finished_total", unit: "count", better: "lower"},
	{name: "trace.dropped_total", unit: "count", better: "lower"},
	{name: "telemetry.observe_ns", unit: "ns", better: "lower"},
	{name: "audit.sampler_skip_ns", unit: "ns", better: "lower"},
	{name: "faultpoint.disarmed_ns", unit: "ns", better: "lower"},

	{name: "latency.loopback_pred_err_pct", unit: "%", better: "lower"},
	{name: "latency.sharded_pred_err_pct", unit: "%", better: "lower"},

	{name: "proc.cpu_ms_per_req", unit: "ms", better: "lower"},
	{name: "proc.gc_count", unit: "count", better: "lower"},
	{name: "proc.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}
