package main

import (
	"autofl"
	"autofl/internal/experiments"
	"autofl/internal/workload"
)

// metricSpec names one reported metric. BENCHMARK.json at the
// repository root lists the same metrics; a test keeps the two equal.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from its untraced run; what the unit of
// work is differs by workload (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"work_per_cpu_s", "1/s", "higher"},
	{"cpu_ms_per_op_p50", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"autofl_ppw_gain", "x", "higher"},
	{"autofl_conv_speedup", "x", "higher"},
}

// fig08Workloads are the workloads of the headline figure, in its row
// order.
func fig08Workloads() []string {
	var out []string
	for _, w := range workload.All() {
		out = append(out, w.Name)
	}
	return out
}

// Paper values recorded beside the measured ones: fig08's AutoFL PPW
// over FedAvg-Random per workload and the headline convergence
// speed-up, and the controller-overhead table in microseconds per
// round.
var (
	paperPPWGain = map[string]float64{
		"CNN-MNIST": 4.0, "LSTM-Shakespeare": 3.7, "MobileNet-ImageNet": 5.1,
	}
	paperConvSpeedup = 3.6
	paperOverheadUS  = []struct {
		phase string
		us    float64
	}{{"observe", 496.8}, {"select", 10.5}, {"reward", 2.1}, {"update", 22.1}}
)

// perLayer are the metrics of single layers, reported by traced runs.
// A workload that does not reach a layer reports that layer's metrics
// as 0.
func perLayer() []metricSpec {
	out := []metricSpec{
		// The end-to-end metrics under their per-workload names, and the
		// latency tail; the untraced half of a traced run supplies them.
		{"rounds_per_s", "1/s", "higher"},
		{"round_wall_ms_p50", "ms", "lower"},
		{"heap_bytes_per_device", "B", "lower"},
		{"cells_per_s", "1/s", "higher"},
		{"job_latency_p50_s", "s", "lower"},
		{"figures_s", "s", "lower"},
		{"failed_frac", "ratio", "lower"},
		{"latency_tail_ms", "ms", "lower"},
		{"latency_tail_q", "ratio", "higher"},
		{"latency_samples", "count", "higher"},

		{"sim.step_us_p50", "us", "lower"},
		{"sim.step_us_p99", "us", "lower"},
		{"sim.self_us_per_round", "us", "lower"},
		{"sim.allocs_per_round", "count", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"device.population_build_s", "s", "lower"},
		{"sim.new_engine_s", "s", "lower"},
		{"sim.kept_frac", "ratio", "higher"},
		{"battery.available_frac", "ratio", "higher"},
		{"battery.depleted_mean", "count", "lower"},
		{"policy.select_us_p50", "us", "lower"},
		{"core.select_us_p50", "us", "lower"},
		{"core.select_us_p99", "us", "lower"},
		{"core.select_ns_per_candidate", "ns", "lower"},
		{"core.feedback_us_p50", "us", "lower"},
		{"core.allocs_per_select", "count", "lower"},
		{"core.heap_growth_bytes_per_device", "B", "lower"},

		{"svc.queue_ms_p50", "ms", "lower"},
		{"svc.run_ms_p50", "ms", "lower"},
		{"svc.result_ms_p50", "ms", "lower"},
		{"svc.notify_lag_ms_p50", "ms", "lower"},
		{"svc.status_calls_per_job", "count", "lower"},
		{"sweep.cell_ms_p50", "ms", "lower"},
		{"sweep.cell_ms_p99", "ms", "lower"},
	}
	for _, p := range autofl.Policies() {
		out = append(out, metricSpec{"sweep.cell_ms_p50." + string(p), "ms", "lower"})
	}
	out = append(out,
		metricSpec{"sweep.worker_busy_frac", "ratio", "higher"},
		metricSpec{"sweep.cells_executed", "count", "lower"},
		metricSpec{"cache.hits", "count", "higher"},
		metricSpec{"cache.prefix_hits", "count", "higher"},
		metricSpec{"cache.misses", "count", "lower"},
		metricSpec{"cache.dir_bytes", "B", "lower"},
		metricSpec{"dist.requeues", "count", "lower"},
		metricSpec{"dist.worker_cells_max_over_min", "ratio", "lower"},
	)
	for _, id := range experiments.IDs() {
		out = append(out, metricSpec{"experiments." + id + "_ms", "ms", "lower"})
	}
	for _, w := range fig08Workloads() {
		out = append(out,
			metricSpec{"experiments.fig08." + w + ".ppw_gain", "x", "higher"},
			metricSpec{"experiments.fig08." + w + ".conv_speedup", "x", "higher"},
		)
	}
	return append(out,
		metricSpec{"trace.overhead_frac", "ratio", "lower"},
		metricSpec{"trace.stray_spans", "count", "lower"},
	)
}
