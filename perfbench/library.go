package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/check"
	"oscachesim/internal/core"
	"oscachesim/internal/kernel"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// Recorded counter digests: every configuration of the workload at
// digestSeed (and, for paper-grid, at scale 1), run through core.Run.
// A change to either is a change to simulated behaviour.
const (
	paperGridDigest = "20a4c09638085309d11f6db11d3f09141e2d5d78ea05444be37e5d38e5a76bb8"
	dir64Digest     = "2aab237b4dec18c96ef2adb8ee23219e1456ff0727ffac56dc869ee1b5cbc094"
)

// digestSeed is the fixed seed of the counter digest.
const digestSeed = 1

// library drives the simulator library serially: one closed-loop client
// runs the workload's configurations through core.Run in turn, with a
// fresh seed each pass over them so no result could be memoized.
type library struct {
	opt    options
	digest string
	// grids returns the campaign grids whose unique configurations make
	// up one pass; forDigest selects the digest's fixed inputs.
	grids func(forDigest bool) ([]campaign.Grid, error)
	// picks are the configurations the traced run re-executes layer by
	// layer.
	picks []int

	cfgs   []core.RunConfig
	planMS []float64
	// Streaming backpressure summed over the timed operations.
	stallTime, streamTime time.Duration
}

func newPaperGrid(opt options) instance {
	// Eight scheduling rounds, the scale of the repository's own
	// benchmarks: a third of the default's trace memory, so a run leans
	// less on the host's memory system, and three times the passes per
	// timed phase to average the seeds over.
	scale := 8
	if opt.Tiny {
		scale = 1
	}
	l := &library{opt: opt, digest: paperGridDigest}
	l.grids = func(forDigest bool) ([]campaign.Grid, error) {
		s := scale
		if forDigest {
			s = 1
		}
		return []campaign.Grid{{
			Workloads: workload.Names(), Systems: core.Systems(), Scale: s, Seed: digestSeed,
		}}, nil
	}
	// One configuration per system, cycling through the workloads; cells
	// are ordered workload-major, system-minor.
	for s := range core.Systems() {
		l.picks = append(l.picks, (s%len(workload.Names()))*len(core.Systems())+s)
	}
	return l
}

func newDir64Stream(opt options) instance {
	l := &library{opt: opt, digest: dir64Digest, picks: []int{0, 1, 2}}
	l.grids = func(forDigest bool) ([]campaign.Grid, error) {
		// TRFD_4 runs three scheduling rounds: the length of a single round
		// varies too much with the seed, and three bring its runs near the
		// sharing preset's, whose length is fixed.
		cpus, trfdScale := 64, 3
		if opt.Tiny && !forDigest {
			cpus, trfdScale = 16, 1
		}
		spec, err := scenario.Preset("sharing")
		if err != nil {
			return nil, err
		}
		dir := []sim.CoherenceKind{sim.CoherenceDirectory}
		return []campaign.Grid{
			{
				Workloads: []workload.Name{workload.TRFD4}, Systems: []core.System{core.Base, core.BCPref},
				CPUs: []int{cpus}, Coherence: dir, Scale: trfdScale, Seed: digestSeed, Stream: true,
			},
			{
				Scenario: spec, Sharers: []int{16}, Systems: []core.System{core.Base},
				CPUs: []int{cpus}, Coherence: dir, Scale: 1, Seed: digestSeed, Stream: true,
			},
		}, nil
	}
	return l
}

// plan expands the grids into their unique configurations.
func (l *library) plan(forDigest bool) ([]core.RunConfig, error) {
	grids, err := l.grids(forDigest)
	if err != nil {
		return nil, err
	}
	var cfgs []core.RunConfig
	for _, g := range grids {
		p, err := campaign.NewPlan(g)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, p.Unique...)
	}
	return cfgs, nil
}

// Seeds: passes count up from the run seed's block; the layer-by-layer
// re-executions use seeds no pass reaches.
func (l *library) passSeed(pass int) int64 { return l.opt.Seed*1_000_000 + int64(pass) + 1 }
func (l *library) layerSeed(j int) int64   { return l.opt.Seed*1_000_000 + 900_000 + int64(j) }

func (l *library) setup(ctx context.Context, b *bench) error {
	t0 := time.Now()
	cfgs, err := l.plan(false)
	if err != nil {
		return err
	}
	l.planMS = append(l.planMS, float64(time.Since(t0))/1e6)
	l.cfgs = cfgs
	// Generating every materialized configuration's trace once fills the
	// trace pool before the timed phase, as a first pass would.
	for _, cfg := range cfgs {
		if cfg.Stream || cfg.Scenario != nil {
			continue
		}
		n := workload.NumCPUs
		if cfg.Machine != nil {
			n = cfg.Machine.NumCPUs
		}
		workload.BuildN(cfg.Workload, cfg.System.KernelOpt(), cfg.Scale, digestSeed, n).Release()
	}
	// The warm-up repeats the same work on every run, whatever the seed,
	// so set-up time does not vary with the inputs.
	warm := cfgs[0]
	warm.Seed = digestSeed
	o, err := core.Run(ctx, warm)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return check.VerifyOutcome(o)
}

func (l *library) op(ctx context.Context, b *bench, i int) (uint64, time.Duration, error) {
	n := len(l.cfgs)
	cfg := l.cfgs[i%n]
	cfg.Seed = l.passSeed(i / n)
	run := ""
	if b.tr != nil {
		run = cfg.CanonicalKey()
	}
	root := b.tr.start("perfbench.op", run, 0)
	defer root.end()
	sp := b.tr.start("core.Run", run, root.id())
	o, err := core.Run(ctx, cfg)
	lat := sp.end()
	if err != nil {
		return 0, 0, err
	}
	vs := b.tr.start("check.VerifyOutcome", run, root.id())
	err = check.VerifyOutcome(o)
	vs.end()
	if err != nil {
		err = fmt.Errorf("%s/%s seed %d: %w", cfg.Workload, cfg.System, cfg.Seed, err)
		b.violation(err)
		return 0, 0, err
	}
	if cfg.Stream {
		b.mu.Lock()
		l.stallTime += o.GenStallTime
		l.streamTime += o.Stages.Stream
		b.mu.Unlock()
	}
	return o.Refs, lat, nil
}

// layers re-executes the picked configurations through the layers'
// public entry points, beside core.Run on the same configuration, and
// takes the per-layer numbers from those calls. The two executions must
// agree byte for byte, or the numbers are rejected.
func (l *library) layers(ctx context.Context, b *bench) error {
	b.set("core.run_ms", quantile(durations(b.tr.snapshot(), "core.Run"), 0.5)/1e6)
	var (
		builds, news, runs, selfs []float64
		buildNS, runNS, refs      float64
		reads, misses, txns       uint64
		syncCycles, allCycles     uint64
		peak                      int
		mismatch                  error
	)
	for j, idx := range l.picks {
		cfg := l.cfgs[idx%len(l.cfgs)]
		cfg.Seed = l.layerSeed(j)
		run := cfg.CanonicalKey()
		root := b.tr.start("perfbench.layers", run, 0)
		cs := b.tr.start("core.Run", run, root.id())
		o, err := core.Run(ctx, cfg)
		coreDur := cs.end()
		if err != nil {
			root.end()
			return err
		}
		ls := b.tr.start("perfbench.layered", run, root.id())
		lr, err := runLayers(ctx, b.tr, cfg, run, ls.id())
		ls.end()
		root.end()
		if err != nil {
			return err
		}
		if err := sameResult(o, lr.res); err != nil && mismatch == nil {
			mismatch = fmt.Errorf("%s/%s seed %d: %w", cfg.Workload, cfg.System, cfg.Seed, err)
		}
		selfs = append(selfs, float64(coreDur-lr.total))
		news = append(news, float64(lr.newD))
		runs = append(runs, float64(lr.runD))
		runNS += float64(lr.runD)
		refs += float64(lr.res.Refs)
		if !cfg.Stream {
			builds = append(builds, float64(lr.build))
			buildNS += float64(lr.build)
		}
		peak = max(peak, lr.peakPending)
		c := &lr.res.Counters
		reads += c.TotalDReads()
		misses += c.TotalDReadMisses()
		txns += c.Bus.TotalTransactions()
		allCycles += c.TotalTime()
		for _, t := range c.Time {
			syncCycles += t.Sync
		}
	}
	b.checkErr("layer-by-layer identity", mismatch)
	b.set("core.self_ms", quantile(selfs, 0.5)/1e6)
	b.set("workload.build_ms", quantile(builds, 0.5)/1e6)
	b.set("workload.gen_mrefs_per_s", ratio(refs, buildNS)*1e3)
	b.set("workload.peak_pending_krefs", float64(peak)/1e3)
	b.set("workload.stream_stall_frac", ratio(float64(l.stallTime), float64(l.streamTime)))
	b.set("sim.new_ms", quantile(news, 0.5)/1e6)
	b.set("sim.run_ms", quantile(runs, 0.5)/1e6)
	b.set("sim.ns_per_ref", ratio(runNS, refs))
	b.set("sim.refs_per_run", ratio(refs, float64(len(l.picks))))
	b.set("sim.l1d_read_miss_rate", ratio(float64(misses), float64(reads)))
	b.set("sim.bus_txns_per_kref", ratio(float64(txns)*1e3, refs))
	b.set("sim.sync_cycle_frac", ratio(float64(syncCycles), float64(allCycles)))
	return nil
}

// verify checks the counter digest of the workload's configurations at
// the fixed seed against the recorded value.
func (l *library) verify(ctx context.Context, b *bench) {
	b.set("campaign.plan_ms", quantile(l.planMS, 0.5))
	got, err := l.counterDigest(ctx)
	want := l.digest
	if b.opt.Faults.Digest != "" {
		want = b.opt.Faults.Digest
	}
	if err == nil && got != want {
		err = fmt.Errorf("counter digest %s, recorded %q", got, want)
	}
	b.digest = got
	b.checkErr("fixed-seed counter digest", err)
}

// counterDigest runs every digest configuration and hashes its counters,
// reference count and per-CPU clocks. Each outcome must also pass
// check.VerifyOutcome.
func (l *library) counterDigest(ctx context.Context) (string, error) {
	cfgs, err := l.plan(true)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, cfg := range cfgs {
		o, err := core.Run(ctx, cfg)
		if err != nil {
			return "", err
		}
		if err := check.VerifyOutcome(o); err != nil {
			return "", err
		}
		c, err := json.Marshal(o.Counters)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d %v\n%s\n", cfg.CanonicalKey(), o.Refs, o.CPUTime, c)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (l *library) close() {}

func (l *library) period() int { return len(l.cfgs) }

// layered is one configuration executed through the layers' public entry
// points.
type layered struct {
	res *sim.Result
	// total is the summed duration of the layer calls.
	total             time.Duration
	build, newD, runD time.Duration
	peakPending       int
}

// runLayers executes cfg the way core.Run does, one public call per
// layer, each under its own span: the system's hardware and kernel
// configuration, the workload build (or stream), the simulator's
// construction and its run.
func runLayers(ctx context.Context, tr *tracer, cfg core.RunConfig, run string, parent int64) (*layered, error) {
	lr := &layered{}
	call := func(name string, f func()) time.Duration {
		sp := tr.start(name, run, parent)
		f()
		d := sp.end()
		lr.total += d
		return d
	}
	p := sim.DefaultParams()
	if cfg.Machine != nil {
		p = *cfg.Machine
	}
	call("core.Apply", func() { cfg.System.Apply(&p) })
	var opt kernel.OptConfig
	call("core.KernelOpt", func() { opt = cfg.System.KernelOpt() })

	var (
		srcs  []trace.Source
		built *workload.Built
		st    *workload.Streamed
		err   error
	)
	switch {
	case cfg.Stream && cfg.Scenario != nil:
		call("workload.StreamSpec", func() {
			st, err = workload.StreamSpec(cfg.Scenario, opt, cfg.Scale, cfg.Seed, workload.StreamOptions{NumCPUs: p.NumCPUs})
		})
	case cfg.Stream:
		call("workload.Stream", func() {
			st = workload.Stream(cfg.Workload, opt, cfg.Scale, cfg.Seed, workload.StreamOptions{NumCPUs: p.NumCPUs})
		})
	case cfg.Scenario != nil:
		lr.build = call("workload.BuildSpec", func() {
			built, err = workload.BuildSpec(cfg.Scenario, opt, cfg.Scale, cfg.Seed, p.NumCPUs)
		})
	default:
		lr.build = call("workload.BuildN", func() {
			built = workload.BuildN(cfg.Workload, opt, cfg.Scale, cfg.Seed, p.NumCPUs)
		})
	}
	if err != nil {
		return nil, err
	}
	if st != nil {
		srcs = st.Sources()
	} else {
		srcs = built.Sources()
	}
	var s *sim.Simulator
	lr.newD = call("sim.New", func() { s, err = sim.New(p, srcs) })
	if err == nil {
		lr.runD = call("sim.Run", func() { lr.res, err = s.Run(ctx) })
	}
	if err != nil {
		if st != nil {
			st.Abort()
		}
		return nil, err
	}
	if st != nil {
		call("workload.Wait", func() { err = st.Wait() })
		lr.peakPending = st.PeakPendingRefs()
		return lr, err
	}
	call("workload.Release", func() { built.Release() })
	return lr, nil
}

// sameResult requires a layer-by-layer execution to reproduce core.Run's
// counters, reference count and per-CPU clocks exactly.
func sameResult(o *core.Outcome, res *sim.Result) error {
	a, err := json.Marshal(o.Counters)
	if err != nil {
		return err
	}
	c, err := json.Marshal(res.Counters)
	if err != nil {
		return err
	}
	switch {
	case !bytes.Equal(a, c):
		return fmt.Errorf("counters differ from core.Run's")
	case o.Refs != res.Refs:
		return fmt.Errorf("%d refs, core.Run %d", res.Refs, o.Refs)
	case !slices.Equal(o.CPUTime, res.CPUTime):
		return fmt.Errorf("per-CPU clocks differ from core.Run's")
	}
	return nil
}
