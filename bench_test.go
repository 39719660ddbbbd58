package oscachesim

// The benchmarks below regenerate every table and figure of the
// paper's evaluation (one benchmark per table/figure, as the study's
// regeneration harness). Each iteration rebuilds the workloads and
// re-simulates from scratch; benchScale keeps a full `go test -bench`
// pass tractable while preserving the published shapes. Use
// cmd/paper for full-scale runs.

import (
	"context"
	"runtime"
	"testing"

	"oscachesim/internal/experiment"
	"oscachesim/internal/kernel"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// benchScale is the number of scheduling rounds per workload used in
// benchmark runs.
const benchScale = 8

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner(experiment.Config{Scale: benchScale, Seed: 1, Workers: runtime.GOMAXPROCS(0)})
		out, err := e.Render(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// BenchmarkTable1 regenerates the workload-characteristics table
// (user/idle/OS time split, miss rates, OS read and miss shares).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates the OS data-miss breakdown (block /
// coherence / other).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates the block-operation characteristics,
// including the cache-bypassing probe run for the reuse rows.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates the deferred-copy study.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5 regenerates the coherence-miss breakdown.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFigure1 regenerates the block-operation overhead
// decomposition.
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "figure1") }

// BenchmarkFigure2 regenerates the block-operation scheme comparison
// (Base, Blk_Pref, Blk_Bypass, Blk_ByPref, Blk_Dma).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "figure2") }

// BenchmarkFigure3 regenerates the full eight-system execution-time
// comparison.
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3") }

// BenchmarkFigure4 regenerates the coherence-optimization comparison.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4") }

// BenchmarkFigure5 regenerates the hot-spot prefetching comparison.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "figure5") }

// BenchmarkFigure6 regenerates the primary-cache-size sweep.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6") }

// BenchmarkFigure7 regenerates the line-size sweep.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "figure7") }

// BenchmarkUpdateTraffic regenerates the Section 5.2 selective-update
// bus-traffic study.
func BenchmarkUpdateTraffic(b *testing.B) { benchExperiment(b, "update-traffic") }

// cyclicSource replays a reference slice in a loop, drawing from a
// budget shared by all processors, so a fixed-size trace can feed a
// simulator exactly b.N references. The simulator is single-goroutine,
// so the plain shared counter is safe.
type cyclicSource struct {
	refs   []trace.Ref
	pos    int
	budget *int64
}

func (s *cyclicSource) Read(dst []trace.Ref) int {
	n := copy(dst[:min(int64(len(dst)), max(*s.budget, 0))], s.refs[s.pos:])
	*s.budget -= int64(n)
	s.pos += n
	if s.pos == len(s.refs) {
		s.pos = 0
	}
	return n
}

// BenchmarkSimulatorThroughput measures the simulator's steady-state
// per-reference cost on the Base machine: one long-lived simulator
// consumes exactly b.N references of a pre-built trace replayed
// cyclically, so allocs/op is the amortized heap traffic of the inner
// loop itself (target: 0) rather than of workload construction. Sync
// annotations are cleared before replay — a cycled trace would
// otherwise strand processors at barriers whose partners ran out of
// budget mid-round.
func BenchmarkSimulatorThroughput(b *testing.B) { benchThroughput(b, sim.DefaultParams()) }

// BenchmarkSimulatorThroughputDir16 and BenchmarkSimulatorThroughputDir64
// measure the same steady-state loop on the 16- and 64-CPU directory
// machines, where the scheduler and the write-buffer probes scale with
// the processor count.
func BenchmarkSimulatorThroughputDir16(b *testing.B) { benchThroughput(b, dirParams(16)) }

func BenchmarkSimulatorThroughputDir64(b *testing.B) { benchThroughput(b, dirParams(64)) }

func dirParams(cpus int) sim.Params {
	p := sim.DefaultParams()
	p.NumCPUs = cpus
	p.Coherence = sim.CoherenceDirectory
	return p
}

func benchThroughput(b *testing.B, p sim.Params) {
	built := workload.BuildN(workload.TRFD4, kernel.OptConfig{}, benchScale, 1, p.NumCPUs)
	per := make([][]trace.Ref, len(built.PerCPU))
	for c, refs := range built.PerCPU {
		per[c] = make([]trace.Ref, len(refs))
		copy(per[c], refs)
		for i := range per[c] {
			per[c][i].Sync = trace.SyncNone
		}
	}
	budget := int64(b.N)
	srcs := make([]trace.Source, len(per))
	for c := range per {
		srcs[c] = &cyclicSource{refs: per[c], budget: &budget}
	}
	s, err := sim.New(p, srcs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if res.Refs != uint64(b.N) {
		b.Fatalf("simulated %d refs, want %d", res.Refs, b.N)
	}
	b.ReportMetric(float64(res.Refs)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkSimulatorReplayDir64 replays one full, pre-built 64-CPU
// TRFD_4 trace on the 64-CPU directory machine: each iteration builds a
// simulator over fresh SliceSources and runs it to the end of the
// trace. Unlike the cyclic SimulatorThroughput loop, whose small trace
// stays cache-resident, the replay streams ~90 MB of references
// through 64 interleaved per-CPU cursors, so it sees the simulator's
// own trace-fetch cost (EXPERIMENTS.md, "Reference delivery"). Scale 3
// is the dir64-stream benchmark's. Its name stays outside the
// SimulatorThroughput pattern the CI floor step counts.
func BenchmarkSimulatorReplayDir64(b *testing.B) {
	p := dirParams(64)
	built := workload.BuildN(workload.TRFD4, kernel.OptConfig{}, 3, 1, p.NumCPUs)
	b.ReportAllocs()
	b.ResetTimer()
	var refs uint64
	for i := 0; i < b.N; i++ {
		s, err := sim.New(p, built.Sources())
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		refs += res.Refs
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkEndToEndRun measures a complete run — workload generation
// plus simulation — through the public options API.
func BenchmarkEndToEndRun(b *testing.B) {
	b.ReportAllocs()
	var refs uint64
	for i := 0; i < b.N; i++ {
		o, err := New(TRFD4, Base, WithScale(benchScale), WithSeed(1)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		refs += o.Refs
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkBuildAndRunStreaming is BenchmarkEndToEndRun driven through
// workload.Stream and sim.New by hand: generation after round 0
// overlaps simulation and the whole trace never exists at once. It
// reports B/op (the pooled chunks keep it far below a whole built
// trace's footprint), throughput, and peak-refs — the pipeline's
// high-water mark of resident references, which stays round 0 plus
// O(budget) regardless of scale where a whole built trace grows with
// it.
func BenchmarkBuildAndRunStreaming(b *testing.B) {
	b.ReportAllocs()
	var refs uint64
	peak := 0
	for i := 0; i < b.N; i++ {
		st := workload.Stream(workload.TRFD4, kernel.OptConfig{}, benchScale, 1, workload.StreamOptions{})
		s, err := sim.New(sim.DefaultParams(), st.Sources())
		if err != nil {
			st.Abort()
			b.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			st.Abort()
			b.Fatal(err)
		}
		if err := st.Wait(); err != nil {
			b.Fatal(err)
		}
		refs += res.Refs
		if p := st.PeakPendingRefs(); p > peak {
			peak = p
		}
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
	b.ReportMetric(float64(peak), "peak-refs")
}

// BenchmarkWorkloadGeneration measures trace-generation speed alone.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built := workload.Build(workload.Shell, kernel.OptConfig{}, 2, int64(i)+1)
		built.Release()
	}
}

// BenchmarkScenarioBuild measures declarative-scenario trace
// generation alone, on the heaviest preset (os-mix: a composed base
// profile plus sharing, false-sharing and block-operation emitters).
func BenchmarkScenarioBuild(b *testing.B) {
	spec, err := scenario.Preset("os-mix")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := workload.BuildSpec(spec, kernel.OptConfig{}, 1, int64(i)+1, 0)
		if err != nil {
			b.Fatal(err)
		}
		built.Release()
	}
}

// figure6Configs is the Figure 6 cache-size grid (4 workloads x 3
// sizes x 3 systems) as the campaign planner expands it: 36
// configurations in grid order, each on an explicit machine.
func figure6Configs(tb testing.TB) []RunConfig {
	tb.Helper()
	p, err := NewCampaignPlan(CampaignGrid{
		Workloads: Workloads(),
		Systems:   []System{Base, BlkDma, BCPref},
		L1SizesKB: []uint64{16, 32, 64},
		Scale:     benchScale,
		Seed:      1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return p.Unique
}

// benchSweep runs the Figure 6 cache-size grid through the scheduler
// at the given width with a cold cache each iteration — the workload
// of `campaign -sizes 16,32,64` over all four workloads. The serial
// and parallel variants quantify the scheduler's wall-clock win; their
// outputs are verified identical by TestParallelSchedulerDeterminism.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfgs := figure6Configs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner(experiment.Config{Scale: benchScale, Seed: 1, Workers: workers})
		if _, err := r.RunConfigs(context.Background(), cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the geometry sweep on one worker.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// TestSweepAllocBudget pins BenchmarkSweepSerial's steady-state heap
// traffic. The sweep's trace batches recycle through the explicit
// trace pool; when a release is missed (BENCH_pr4 silently tripled
// bytes/op this way) every run rebuilds its multi-megabyte trace from
// fresh memory. The first sweep warms the pool, the second is
// measured; the budget is ~2x the healthy steady state (≈58 MB), far
// below the broken one (≈180 MB).
func TestSweepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	cfgs := figure6Configs(t)
	sweep := func() {
		r := experiment.NewRunner(experiment.Config{Scale: benchScale, Seed: 1})
		if _, err := r.RunConfigs(context.Background(), cfgs); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm the trace pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	const budget = 120 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("steady-state sweep allocated %d MB, budget %d MB — a trace-pool release is being missed",
			got>>20, budget>>20)
	}
}

// BenchmarkSweepParallel is the same sweep across GOMAXPROCS workers.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }

// --- Ablation benchmarks -------------------------------------------------
//
// One benchmark per design-choice study (see DESIGN.md and cmd/paper):
// they exercise the full sensitivity sweep each iteration.

func benchAblation(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner(experiment.Config{Scale: benchScale, Seed: 1})
		if _, err := e.Render(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWriteBuffers sweeps the write buffer depths.
func BenchmarkAblationWriteBuffers(b *testing.B) { benchAblation(b, "write-buffers") }

// BenchmarkAblationPrefetchDistance sweeps the Blk_Pref pipelining lead.
func BenchmarkAblationPrefetchDistance(b *testing.B) { benchAblation(b, "prefetch-distance") }

// BenchmarkAblationDMARate sweeps the Blk_Dma bus transfer rate.
func BenchmarkAblationDMARate(b *testing.B) { benchAblation(b, "dma-rate") }

// BenchmarkAblationUpdateSet sweeps the selective-update set
// granularity.
func BenchmarkAblationUpdateSet(b *testing.B) { benchAblation(b, "update-set") }

// BenchmarkAblationAssociativity sweeps primary-cache associativity.
func BenchmarkAblationAssociativity(b *testing.B) { benchAblation(b, "associativity") }

// BenchmarkConflictAnalysis regenerates the Section 6 conflict-pair
// census.
func BenchmarkConflictAnalysis(b *testing.B) { benchAblation(b, "conflict-pairs") }

// BenchmarkCampaignExpand measures the campaign planner: expanding a
// 96-cell grid (2 workloads × 3 CPU counts × 2 coherence protocols ×
// 8 systems) into validated cells and grouping the duplicates by
// canonical key. No simulation runs — this is the cost a POST
// /v1/campaigns pays before queuing.
func BenchmarkCampaignExpand(b *testing.B) {
	g := CampaignGrid{
		Workloads: []Workload{TRFD4, ARC2DFsck},
		Systems:   Systems(),
		CPUs:      []int{4, 8, 16},
		Coherence: []CoherenceKind{CoherenceSnoop, CoherenceDirectory},
		Scale:     benchScale,
		Seed:      1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := NewCampaignPlan(g)
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Cells) != 96 {
			b.Fatalf("%d cells", len(p.Cells))
		}
	}
}
