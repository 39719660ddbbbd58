package main

import (
	"bytes"
	"encoding/json"
)

// metric is one reported number: its name, unit, which direction is an
// improvement and, for end-to-end metrics, the share of the baseline
// median by which it may worsen before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the simulator or the daemon sees,
// measured with tracing off and reported on every workload. Simulated
// statistics are not among them: they are output checks, because any
// change to them is a correctness failure.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"runs_per_s", "1/s", "higher", 0.25},
	{"run_p50_ms", "ms", "lower", 0.25},
	{"run_ptail_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's numbers, each measured from outside by
// timing calls into one layer's public functions. A metric whose layer a
// workload never reaches reads 0 on that workload.
var perLayer = []metric{
	{"workload.build_ms", "ms", "lower", 0},
	{"workload.gen_mrefs_per_s", "Mrefs/s", "higher", 0},
	{"workload.stream_stall_frac", "ratio", "lower", 0},
	{"workload.peak_pending_krefs", "krefs", "lower", 0},
	{"sim.new_ms", "ms", "lower", 0},
	{"sim.run_ms", "ms", "lower", 0},
	{"sim.ns_per_ref", "ns", "lower", 0},
	{"sim.refs_per_run", "count", "lower", 0},
	{"sim.l1d_read_miss_rate", "ratio", "lower", 0},
	{"sim.bus_txns_per_kref", "txn/kref", "lower", 0},
	{"sim.sync_cycle_frac", "ratio", "lower", 0},
	{"sim_mrefs_per_s", "Mrefs/s", "higher", 0},
	{"core.run_ms", "ms", "lower", 0},
	{"core.self_ms", "ms", "lower", 0},
	{"campaign.plan_ms", "ms", "lower", 0},
	{"server.submit_ms_p50", "ms", "lower", 0},
	{"server.submit_ms_p99", "ms", "lower", 0},
	{"server.result_get_ms", "ms", "lower", 0},
	{"server.dedup_frac", "ratio", "higher", 0},
	{"server.wait_ms", "ms", "lower", 0},
	{"server.queue_wait_ms", "ms", "lower", 0},
	{"server.simulate_ms", "ms", "lower", 0},
	{"server.store_hit_frac", "ratio", "higher", 0},
	{"server.retries_429", "count", "lower", 0},
	{"server.executions", "count", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.replay_us_per_record", "us", "lower", 0},
	{"store.put_us", "us", "lower", 0},
	{"store.get_us", "us", "lower", 0},
	{"store.bytes_per_record", "B", "lower", 0},
	{"go.alloc_kb_per_run", "KB", "lower", 0},
	{"go.gc_per_run", "count", "lower", 0},
	{"go.gc_cpu_frac", "ratio", "lower", 0},
	{"go.heap_live_mb", "MB", "lower", 0},
	// Peak RSS is reported but not gated: on paper-grid it swung by 20 to
	// 29% between sets of runs of the same code, because the trace pool
	// keeps the largest arrays it has seen and those depend on the seeds.
	{"peak_rss_mb", "MB", "lower", 0},
	{"retained_kb_per_run", "KB", "lower", 0},
	{"error_rate", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// unitOf returns a metric's unit by name.
func unitOf(name string) string {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// runSeconds is how long one run measures; BENCHMARK.json records it.
const runSeconds = 25

// specJSON renders BENCHMARK.json from the workload and metric tables,
// so the committed file and the program cannot drift apart.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
