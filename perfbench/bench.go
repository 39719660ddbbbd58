package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// options configure one benchmark run.
type options struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Trace    bool
	// Tiny shrinks every input so the whole code path runs in a second;
	// the benchmark's own tests use it.
	Tiny bool
	// Root is the repository root, whose sources identify the build.
	Root string
	// OutDir holds temporary stores, traces and per-run result files.
	OutDir string
	// Faults injects the failures the tests expect the checks to catch.
	Faults faults
}

// faults are deliberate defects, each of which one check must catch.
type faults struct {
	// Digest replaces the recorded counter digest.
	Digest string
	// ExtraExecutions submits this many additional unique runs during the
	// timed phase without counting them as expected executions.
	ExtraExecutions int
	// BadRequests makes the first timed operations send requests the
	// daemon must refuse.
	BadRequests int
}

// instance is one workload's state for the length of a run.
type instance interface {
	// setup prepares the workload. It runs setupRuns times; each call
	// replaces what the previous one built.
	setup(ctx context.Context, b *bench) error
	// op performs timed operation i and returns the simulated references
	// it delivered and its latency as the workload defines it.
	op(ctx context.Context, b *bench, i int) (refs uint64, lat time.Duration, err error)
	// layers makes the traced run's per-layer measurements.
	layers(ctx context.Context, b *bench) error
	// verify runs the output checks that follow the timed phases.
	verify(ctx context.Context, b *bench)
	// period is how many operations pass before the configuration mix
	// repeats: operations i and i+period() run alike.
	period() int
	// close releases everything the instance holds.
	close()
}

// workloadDef names a workload and says why the benchmark runs it.
type workloadDef struct {
	name string
	why  string
	// clients is the number of closed-loop client goroutines.
	clients int
	// tail is the percentile run_ptail_ms targets.
	tail float64
	make func(options) instance
}

var workloads = []workloadDef{
	{
		name:    "paper-grid",
		why:     "4 paper workloads x 8 systems at scale 8 on the 4-CPU snooping machine, serial core.Run: the reproduction path (linear-scan scheduler, snoop bus, block ops)",
		clients: 1, tail: 0.95, make: newPaperGrid,
	},
	{
		name:    "dir64-stream",
		why:     "64-CPU directory machine, streamed (TRFD_4 Base and BCPref, sharing preset at degree 16): heap scheduler, directory, home ports, chunk pipeline",
		clients: 1, tail: 0.6, make: newDir64Stream,
	},
	{
		name:    "service-cold",
		why:     "in-process daemon with a durable store, every request a unique small run awaited on its stream: queue, workers, simulate, store append",
		clients: 2, tail: 0.99, make: newServiceCold,
	},
	{
		name:    "service-hot",
		why:     "daemon restarted over a store of precomputed results, clients re-submit and fetch them: submit, dedup, store lookup and JSON, no simulation",
		clients: 2, tail: 0.99, make: newServiceHot,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 3

// verdict is one output check's outcome.
type verdict struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// bench is the state one run shares with its workload instance.
type bench struct {
	opt options
	def workloadDef
	// tr records spans; nil outside the traced phases.
	tr *tracer
	// ops numbers timed operations across phases, so no two operations
	// of a run share an index.
	ops atomic.Int64

	mu         sync.Mutex
	checks     []verdict
	layer      map[string]float64
	violations int
	firstBad   error
	logged     int
	// digest is the fixed-seed counter digest a library workload computed.
	digest string
}

// checkErr records a named check's verdict.
func (b *bench) checkErr(name string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := verdict{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	b.checks = append(b.checks, c)
}

// violation records a wrong output of one timed operation.
func (b *bench) violation(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.violations == 0 {
		b.firstBad = err
	}
	b.violations++
}

// set records a per-layer metric.
func (b *bench) set(name string, v float64) {
	if unitOf(name) == "" {
		panic("perfbench: unknown metric " + name)
	}
	b.mu.Lock()
	b.layer[name] = v
	b.mu.Unlock()
}

// phase is one closed-loop timed phase.
type phase struct {
	lat       []float64 // ms, successful operations
	elapsed   time.Duration
	attempted int
	failed    int
	refs      uint64
	// wall sums each operation's wall time (and counts operations) by
	// its position in the configuration mix.
	wall map[int][2]float64
}

// overheadFrac compares a traced phase t with an untraced phase a by the
// mean wall time of each position in the configuration mix both phases
// reached, so a different mix in the two halves does not count as
// tracing overhead.
func overheadFrac(a, t phase) float64 {
	var sa, st float64
	for k, w := range t.wall {
		if u, ok := a.wall[k]; ok {
			st += w[0] / w[1]
			sa += u[0] / u[1]
		}
	}
	return ratio(st, sa) - 1
}

// runPhase runs the workload's clients in closed loops for d: each
// client starts its next operation only when the previous one returns.
// Every client performs at least one operation.
func (b *bench) runPhase(ctx context.Context, inst instance, d time.Duration) phase {
	var (
		mu sync.Mutex
		ph = phase{wall: map[int][2]float64{}}
		wg sync.WaitGroup
	)
	period := max(inst.period(), 1)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < b.def.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(b.ops.Add(1) - 1)
				t0 := time.Now()
				refs, lat, err := inst.op(ctx, b, i)
				wall := float64(time.Since(t0))
				mu.Lock()
				w := ph.wall[i%period]
				ph.wall[i%period] = [2]float64{w[0] + wall, w[1] + 1}
				ph.attempted++
				if err != nil {
					ph.failed++
					b.logFailure(i, err)
				} else {
					ph.lat = append(ph.lat, float64(lat)/1e6)
					ph.refs += refs
				}
				mu.Unlock()
				if !time.Now().Before(deadline) || ctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// logFailure prints the first few failed operations to standard error.
func (b *bench) logFailure(i int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.logged < 5 {
		fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", i, err)
	}
	b.logged++
}

// result is everything one run reports.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Checks    []verdict          `json:"checks"`
	Env       environment        `json:"env"`
	// TraceFile is where the traced run wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`
	// Layers is the traced run's self time by layer.
	Layers []layerSummary `json:"layers,omitempty"`
}

// run executes one benchmark run: set-up (several times), the timed
// phase or phases, the traced run's per-layer measurements, and the
// output checks.
func run(ctx context.Context, opt options) (*result, error) {
	def, err := findWorkload(opt.Workload)
	if err != nil {
		return nil, err
	}
	if opt.Seed < 0 {
		return nil, fmt.Errorf("seed %d is negative", opt.Seed)
	}
	b := &bench{opt: opt, def: def, layer: map[string]float64{}}
	inst := def.make(opt)
	defer inst.close()

	var setups []float64
	for r := 0; r < setupRuns; r++ {
		t0 := time.Now()
		if err := inst.setup(ctx, b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := &result{Metrics: map[string]float64{}}
	var timed []phase
	if !opt.Trace {
		ph := b.runPhase(ctx, inst, opt.Duration)
		timed = []phase{ph}
		q := tailQuantile(def.tail, len(ph.lat))
		res.Metrics["setup_s"] = quantile(setups, 0.5)
		res.Metrics["runs_per_s"] = float64(len(ph.lat)) / ph.elapsed.Seconds()
		res.Metrics["run_p50_ms"] = quantile(ph.lat, 0.5)
		res.Metrics["run_ptail_ms"] = quantile(ph.lat, q)
		res.Env.Samples = len(ph.lat)
		res.Env.TailPercentile = 100 * q
	} else {
		// Half the time untraced, half traced: their difference is the
		// tracing overhead, and the untraced half gives the memory and
		// throughput figures.
		m0 := readMem()
		a := b.runPhase(ctx, inst, opt.Duration/2)
		m1 := readMem()
		b.tr = newTracer()
		t := b.runPhase(ctx, inst, opt.Duration/2)
		b.set("peak_rss_mb", peakRSSMB())
		if err := inst.layers(ctx, b); err != nil {
			return nil, fmt.Errorf("per-layer measurements: %w", err)
		}
		timed = []phase{a, t}
		n := float64(len(a.lat))
		b.set("sim_mrefs_per_s", float64(a.refs)/a.elapsed.Seconds()/1e6)
		b.set("go.alloc_kb_per_run", ratio(float64(m1.totalAlloc-m0.totalAlloc)/1024, n))
		b.set("go.gc_per_run", ratio(float64(m1.numGC-m0.numGC), n))
		b.set("go.gc_cpu_frac", ratio(m1.gcCPU-m0.gcCPU, m1.allCPU-m0.allCPU))
		b.set("go.heap_live_mb", float64(m1.heapLive)/(1<<20))
		b.set("retained_kb_per_run", ratio((float64(m1.heapLive)-float64(m0.heapLive))/1024, n))
		b.set("trace.overhead_frac", overheadFrac(a, t))
		res.Env.Samples = len(a.lat) + len(t.lat)
	}
	for _, ph := range timed {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
	}
	b.set("error_rate", ratio(float64(res.Failed), float64(res.Attempted)))

	inst.verify(ctx, b)
	var wrong error
	if b.violations > 0 {
		wrong = fmt.Errorf("%d wrong outputs, first: %w", b.violations, b.firstBad)
	}
	b.checkErr("operation outputs", wrong)
	if opt.Trace {
		for _, m := range perLayer {
			res.Metrics[m.Name] = b.layer[m.Name]
		}
	}
	res.Checks = b.checks
	res.Correct = res.Attempted > 0
	for _, c := range b.checks {
		res.Correct = res.Correct && c.OK
	}
	res.Env.fill(opt, def)
	res.Env.Digest = b.digest
	if opt.Trace {
		path, layers, err := writeTrace(opt, res.Env, b.tr.snapshot(), b.layer["trace.overhead_frac"])
		if err != nil {
			return nil, err
		}
		res.TraceFile, res.Layers = path, layers
	}
	return res, nil
}

// maxWrittenSpans bounds the spans a trace file lists; the summaries
// always cover every span recorded.
const maxWrittenSpans = 50_000

// writeTrace writes the traced run's spans, their per-name and
// per-layer self times and the tracing overhead to one JSON file.
func writeTrace(opt options, env environment, spans []span, overhead float64) (string, []layerSummary, error) {
	names, _ := summarize(spans)
	// Layer self times come from the layer-by-layer re-executions where a
	// workload has them: from outside, a core.Run call cannot be split.
	_, layers := summarize(subtree(spans, "perfbench.layered"))
	doc := struct {
		Env          environment    `json:"env"`
		OverheadFrac float64        `json:"overhead_frac"`
		Layers       []layerSummary `json:"layers"`
		Names        []spanSummary  `json:"names"`
		SpanCount    int            `json:"span_count"`
		Spans        []span         `json:"spans"`
	}{env, overhead, layers, names, len(spans), spans[:min(len(spans), maxWrittenSpans)]}
	dir := filepath.Join(opt.OutDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", opt.Workload, opt.Seed))
	data, err := json.Marshal(doc)
	if err != nil {
		return "", nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", nil, err
	}
	return path, layers, nil
}
