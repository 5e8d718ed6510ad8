package main

// metricSpec declares one metric. BENCHMARK.json carries the same table;
// the package test fails when the two differ, so a rename cannot be
// silent.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees. Bound is the share of
// the baseline median a metric may worsen by before it is a regression.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"client_updates_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_update", "s", "lower", 0.25},
	{"rounds_to_acc", "count", "lower", 0.25},
	{"final_acc", "fraction", "higher", 0.05},
	{"wire_bytes_per_round", "B", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"ok_ops_share", "fraction", "higher", 0.10},
}

// perLayer is the traced pass: prefix = module.
var perLayer = []metricSpec{
	{Name: "tensor.gemm_calls_per_update", Unit: "count", Better: "lower"},
	{Name: "tensor.gemm_flops_per_update", Unit: "count", Better: "lower"},
	{Name: "tensor.gemm_busy_s", Unit: "s", Better: "lower"},
	{Name: "tensor.gemm_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "tensor.elemwise_busy_s", Unit: "s", Better: "lower"},

	{Name: "nn.codec_encode_s", Unit: "s", Better: "lower"},
	{Name: "nn.codec_decode_s", Unit: "s", Better: "lower"},
	{Name: "nn.codec_payload_bytes", Unit: "B", Better: "lower"},
	{Name: "nn.codec_allocs", Unit: "count", Better: "lower"},
	{Name: "nn.lerp_s", Unit: "s", Better: "lower"},
	{Name: "nn.paramio_s", Unit: "s", Better: "lower"},

	{Name: "models.new_s", Unit: "s", Better: "lower"},
	{Name: "models.replicas_outstanding", Unit: "count", Better: "lower"},

	{Name: "data.build_s", Unit: "s", Better: "lower"},
	{Name: "data.lease_calls", Unit: "count", Better: "lower"},
	{Name: "data.shard_s_p50", Unit: "s", Better: "lower"},
	{Name: "data.shard_s_p95", Unit: "s", Better: "lower"},
	{Name: "data.cache_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "data.prefetch_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "data.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "data.leases_outstanding", Unit: "count", Better: "lower"},

	{Name: "fl.select_s", Unit: "s", Better: "lower"},
	{Name: "fl.engine_gap_s_p50", Unit: "s", Better: "lower"},
	{Name: "fl.down_s_p50", Unit: "s", Better: "lower"},
	{Name: "fl.train_wall_s_p50", Unit: "s", Better: "lower"},
	{Name: "fl.train_busy_s", Unit: "s", Better: "lower"},
	{Name: "fl.pool_idle_share", Unit: "fraction", Better: "lower"},
	{Name: "fl.post_train_s_p50", Unit: "s", Better: "lower"},
	{Name: "fl.eval_s", Unit: "s", Better: "lower"},
	{Name: "fl.reduce_s", Unit: "s", Better: "lower"},
	{Name: "fl.savestate_s", Unit: "s", Better: "lower"},
	{Name: "fl.savestate_bytes", Unit: "B", Better: "lower"},
	{Name: "fl.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "fl.resume_s", Unit: "s", Better: "lower"},
	{Name: "fl.async_train_share", Unit: "fraction", Better: "higher"},
	{Name: "fl.retries", Unit: "count", Better: "lower"},
	{Name: "fl.crashes", Unit: "count", Better: "lower"},
	{Name: "fl.fault_drops", Unit: "count", Better: "lower"},
	{Name: "fl.stragglers", Unit: "count", Better: "lower"},
	{Name: "fl.degraded_rounds", Unit: "count", Better: "lower"},
	{Name: "fl.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "fl.alloc_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "fl.gc_pause_s", Unit: "s", Better: "lower"},

	{Name: "core.round_s_p50", Unit: "s", Better: "lower"},
	{Name: "core.round_s_p90", Unit: "s", Better: "lower"},
	{Name: "core.simmatrix_s", Unit: "s", Better: "lower"},
	{Name: "core.crossaggr_s", Unit: "s", Better: "lower"},
	{Name: "core.global_s", Unit: "s", Better: "lower"},
	{Name: "core.post_train_coverage", Unit: "fraction", Better: "higher"},

	{Name: "baselines.round_s_p50", Unit: "s", Better: "lower"},
	{Name: "baselines.round_s_p90", Unit: "s", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower"},
}

// runSeconds is how long one end-to-end pass measures by default, and
// the run_seconds BENCHMARK.json hands the driver.
const runSeconds = 15

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadSpec{w.name, w.why})
	}
	return m
}
