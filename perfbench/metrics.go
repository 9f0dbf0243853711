package main

import "planet/internal/experiments"

// metricDef declares one reported metric. BENCHMARK.json at the repo root
// lists the same names, units and directions (metrics_test.go checks).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated regression, as a share of the median
}

// endToEnd are the metrics a user sees, measured with tracing off. Every
// workload reports every one of them; see README.md for what each means
// on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"commit_ratio", "ratio", "higher", 0.1},
	{"final_p50_ms", "ms", "lower", 0.25},
	{"goodput_per_s", "1/s", "higher", 0.2},
}

// stageNames are the obs stages whose self-time the traced run reports.
var stageNames = []string{
	"admit", "submit", "option_rpc", "master_arbitrate",
	"replica_wal", "vote_return", "decide_broadcast", "client_notify",
}

// perLayer are the traced run's metrics, grouped by the layer (package)
// they describe.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "workload.build_us", unit: "us", better: "lower"},
		{name: "workload.goroutines_peak", unit: "count", better: "lower"},
		{name: "vclock.wall_us_per_virtual_ms", unit: "us", better: "lower"},
		{name: "core.admitted_ratio", unit: "ratio", better: "higher"},
		{name: "core.speculated_ratio", unit: "ratio", better: "higher"},
		{name: "core.apology_ratio", unit: "ratio", better: "lower"},
		{name: "core.perceived_p50_ms", unit: "ms", better: "lower"},
		{name: "core.final_p99_ms", unit: "ms", better: "lower"},
		{name: "core.commit_call_us", unit: "us", better: "lower"},
		{name: "predictor.at_submit_ns", unit: "ns", better: "lower"},
		{name: "predictor.calibration_gap", unit: "ratio", better: "lower"},
		{name: "mdcc.fast_accept_ratio", unit: "ratio", better: "higher"},
		{name: "mdcc.classic_runs_per_commit", unit: "count", better: "lower"},
		{name: "mdcc.fallbacks_per_txn", unit: "count", better: "lower"},
		{name: "mdcc.recovery_runs", unit: "count", better: "lower"},
		{name: "mdcc.timeouts", unit: "count", better: "lower"},
		{name: "mdcc.wal_entries_per_commit", unit: "count", better: "lower"},
		{name: "mdcc.wal_bytes_per_commit", unit: "bytes", better: "lower"},
		{name: "mdcc.replay_s", unit: "s", better: "lower"},
		{name: "mdcc.wal_append_us", unit: "us", better: "lower"},
		{name: "mdcc.wal_sync_us", unit: "us", better: "lower"},
		{name: "simnet.msgs_per_commit", unit: "count", better: "lower"},
		{name: "simnet.dropped", unit: "count", better: "lower"},
		{name: "realnet.frames_per_commit", unit: "count", better: "lower"},
		{name: "realnet.payloads_per_frame", unit: "count", better: "higher"},
		{name: "httpapi.submit_ms", unit: "ms", better: "lower"},
		{name: "httpapi.wait_ms", unit: "ms", better: "lower"},
		{name: "httpapi.server_p50_ms", unit: "ms", better: "lower"},
		{name: "httpapi.read_p50_ms", unit: "ms", better: "lower"},
		{name: "httpapi.read_p99_ms", unit: "ms", better: "lower"},
		{name: "cluster.restart_s", unit: "s", better: "lower"},
		{name: "cluster.max_rate_at_slo", unit: "1/s", better: "higher"},
		{name: "gen.late_p99_ms", unit: "ms", better: "lower"},
		{name: "go.alloc_bytes_per_arrival", unit: "bytes", better: "lower"},
		{name: "go.gc_cycles", unit: "count", better: "lower"},
		{name: "trace.wall_ratio", unit: "ratio", better: "lower"},
		{name: "trace.cpu_ratio", unit: "ratio", better: "lower"},
	}
	for _, st := range stageNames {
		defs = append(defs, metricDef{name: "stage." + st + "_ms", unit: "ms", better: "lower"})
	}
	for _, e := range experiments.Registry {
		defs = append(defs, metricDef{name: "experiments." + e.ID + "_s", unit: "s", better: "lower"})
	}
	return defs
}()
