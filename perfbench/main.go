// Command perfbench is the repository's benchmark. One run sets a
// workload up, measures it for a fixed time, checks that every output is
// correct, and prints its metrics by name with their units; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 190, "failed": 0, "metrics": {"setup_s": {"value": 0.17, "unit": "s"}, ...}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
//
// Four workloads, all closed-loop and generated from --seed:
//
//   - paper-grid: the 4 paper workloads x 8 systems at scale 8 on the
//     default 4-CPU snooping machine, run serially through core.Run.
//   - dir64-stream: TRFD_4 under Base and BCPref plus the sharing preset
//     at degree 16, streamed on a 64-CPU directory machine.
//   - service-cold: an in-process daemon (server.New + Handler on a
//     loopback listener, a durable store in a temporary directory); two
//     clients each submit unique small runs and wait on their streams.
//   - service-hot: the daemon is restarted over a store of precomputed
//     results; two clients re-submit those keys and fetch the results.
//
// With --trace 0 a run reports the end-to-end metrics (setup_s,
// runs_per_s, run_p50_ms, run_ptail_ms). With --trace 1 it
// measures half the time untraced and half with spans recorded around
// the benchmark's calls into each layer (workload, sim, core, campaign,
// server, store), re-executes library configurations through the
// layers' public entry points, and reports the per-layer metrics; the
// spans, self times and tracing overhead go to
// .bench_build/perfbench/traces/. Every run also writes its result with
// the environment to .bench_build/perfbench/results/.
//
// perfbench --write-spec regenerates BENCHMARK.json from the tables in
// spec.go and bench.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runBudget bounds a whole run, set-up and checks included.
const runBudget = 170 * time.Second

func main() {
	var (
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Int64("seed", 1, "input seed (non-negative)")
		seconds   = flag.Float64("seconds", runSeconds, "measured time")
		traced    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		out       = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for temporary stores, traces and result files")
		writeSpec = flag.Bool("write-spec", false, "write BENCHMARK.json to the current directory and exit")
	)
	flag.Parse()
	if *writeSpec {
		data, err := specJSON()
		if err == nil {
			err = os.WriteFile("BENCHMARK.json", data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opt := options{
		Workload: *name,
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *traced == 1,
		Root:     ".",
		OutDir:   *out,
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	res, err := run(ctx, opt)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(res)
	if err := writeResult(opt, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := finalLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the run for a reader: environment, metrics with units,
// per-layer self time and the checks.
func report(res *result) {
	env, _ := json.Marshal(res.Env)
	fmt.Printf("env %s\n", env)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if n == "run_ptail_ms" {
			note = fmt.Sprintf("  (p%g of %d samples)", res.Env.TailPercentile, res.Env.Samples)
		}
		fmt.Printf("metric %-30s %14.6g %s%s\n", n, res.Metrics[n], unitOf(n), note)
	}
	for _, l := range res.Layers {
		fmt.Printf("layer  %-30s self %10.1f ms  %5.1f%%\n", l.Layer, l.SelfTotMS, 100*l.Share)
	}
	if res.TraceFile != "" {
		fmt.Printf("trace  %s\n", res.TraceFile)
	}
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Printf("check  %-30s %s\n", c.Name, verdict)
	}
	fmt.Printf("result correct=%t attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// writeResult saves the full result, environment included.
func writeResult(opt options, res *result) error {
	dir := filepath.Join(opt.OutDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if opt.Trace {
		trace = 1
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", opt.Workload, opt.Seed, trace)), data, 0o644)
}

// finalLine renders the one-line JSON summary.
func finalLine(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for n, v := range res.Metrics {
		metrics[n] = value{v, unitOf(n)}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(data), err
}
