package main

// The benchmark's metrics, by name (the workloads are in clips.go).
// BENCHMARK.json at the repository root carries the same tables for the
// driver; TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// metricSpec names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees; every workload reports every
// one of them from an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "frames/s", "higher", 0.25},
	{"frame_ms_p50", "ms", "lower", 0.25},
	{"frame_ms_p95", "ms", "lower", 0.25},
	{"bytes_per_frame", "bytes", "lower", 0.08},
	{"psnr_y_db", "dB", "higher", 0.015},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer comes from the traced run only. A layer that is not on a
// workload's path did no work there and reports 0.
var perLayer = []metricSpec{
	{"metrics.sad16_ns", "ns", "lower", 0},
	{"metrics.sad_capped16_ns", "ns", "lower", 0},
	{"metrics.sad_halfpel_ring_ns", "ns", "lower", 0},
	{"metrics.intra_sad16_ns", "ns", "lower", 0},

	{"search.fsbm_ns_per_block", "ns", "lower", 0},
	{"search.fsbm_points_per_block", "points", "lower", 0},
	{"search.pbm_ns_per_block", "ns", "lower", 0},
	{"search.pbm_points_per_block", "points", "lower", 0},
	{"search.fsbm_overhead_ns_per_point", "ns", "lower", 0},

	{"core.acbm_ns_per_block", "ns", "lower", 0},
	{"core.points_per_mb", "points", "lower", 0},
	{"core.easy_share", "ratio", "higher", 0},
	{"core.goodmatch_share", "ratio", "higher", 0},
	{"core.critical_share", "ratio", "lower", 0},

	{"dct.fwd_quant_ns_per_block", "ns", "lower", 0},
	{"dct.dequant_inv_ns_per_block", "ns", "lower", 0},
	{"dct.coded_block_share", "ratio", "lower", 0},

	{"entropy.write_block_ns", "ns", "lower", 0},
	{"entropy.read_block_ns", "ns", "lower", 0},
	{"entropy.bits_per_block", "bits", "lower", 0},

	{"frame.halfpel_fill_ns_per_tile", "ns", "lower", 0},
	{"frame.halfpel_bytes_per_frame", "bytes", "lower", 0},
	{"frame.halfpel_tile_share", "ratio", "lower", 0},
	{"frame.apron_ns_per_frame", "ns", "lower", 0},
	{"frame.psnr_ns_per_frame", "ns", "lower", 0},
	{"frame.y4m_read_ns_per_frame", "ns", "lower", 0},
	{"frame.pool_miss_share", "ratio", "lower", 0},

	{"codec.analysis_ms_per_frame", "ms", "lower", 0},
	{"codec.entropy_ms_per_frame", "ms", "lower", 0},
	{"codec.intra_frame_ms", "ms", "lower", 0},
	{"codec.inter_frame_ms", "ms", "lower", 0},
	{"codec.allocs_per_frame", "allocs", "lower", 0},
	{"codec.alloc_bytes_per_frame", "bytes", "lower", 0},
	{"codec.decode_ms_per_frame", "ms", "lower", 0},
	{"codec.packet_io_ns_per_packet", "ns", "lower", 0},
	{"codec.parallel_speedup", "x", "higher", 0},
	{"codec.unattributed_share", "ratio", "lower", 0},

	{"server.read_ms_per_frame", "ms", "lower", 0},
	{"server.queue_wait_ms_per_frame", "ms", "lower", 0},
	{"server.stall_ms_p95", "ms", "lower", 0},
	{"server.analysis_ms_per_frame", "ms", "lower", 0},
	{"server.entropy_ms_per_frame", "ms", "lower", 0},
	{"server.emit_ms_per_frame", "ms", "lower", 0},
	{"server.http_overhead_ms", "ms", "lower", 0},
	{"server.cpu_s_per_kframe", "s", "lower", 0},
	{"server.sessions_rejected", "count", "lower", 0},
	{"server.sessions_failed", "count", "lower", 0},
	{"server.frames_total_mismatch", "count", "lower", 0},

	{"gateway.route_ms_per_session", "ms", "lower", 0},
	{"gateway.relay_overhead_ms", "ms", "lower", 0},
	{"gateway.attempts_per_session", "count", "lower", 0},
	{"gateway.retries", "count", "lower", 0},
	{"gateway.cpu_s_per_kframe", "s", "lower", 0},
	{"gateway.bytes_relayed_mismatch", "count", "lower", 0},

	{"bench.sender_late_ms_p95", "ms", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.clipgen_ms_per_frame", "ms", "lower", 0},
}

// senderLateLimitMs is how late the paced generator may run (p95) before a
// fleet_live measurement is flagged invalid: a late generator shifts frames' due
// times, so frame latency would measure the bench, not the fleet.
const senderLateLimitMs = 2.0
