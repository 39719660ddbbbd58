// Command sweep runs parameter sweeps: cache-geometry grids (the
// Figures 6-7 studies, generalized to arbitrary grids) and scenario
// sharing-degree sweeps. For each grid point it simulates the chosen
// systems and prints normalized OS execution time and miss counts.
//
// Simulations run through the shared experiment.Runner memoization —
// the same content-addressed cache the ossimd daemon serves from — so
// repeated grid points cost one simulation, and Ctrl-C cancels the
// in-flight simulation instead of letting it run to completion.
//
// Usage:
//
//	sweep -sizes 16,32,64 -systems Base,Blk_Dma,BCPref
//	sweep -linesizes 16,32,64 -l2line 64
//	sweep -scenario sharing -sharers 1,2,4,8,16 -cpus 16 -coherence directory
//	sweep -scenario my-spec.json -sizes 16,32,64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/experiment"
	"oscachesim/internal/prof"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

func main() {
	var (
		sizes    = flag.String("sizes", "", "comma-separated L1D sizes in KB to sweep")
		lines    = flag.String("linesizes", "", "comma-separated L1D line sizes in bytes to sweep")
		l2line   = flag.Uint64("l2line", 32, "L2 line size in bytes during a line-size sweep")
		sysList  = flag.String("systems", "Base,Blk_Dma,BCPref", "comma-separated systems")
		ncpus    = flag.Int("cpus", 0, "processor count at every grid point (0 = the paper's 4)")
		cohname  = flag.String("coherence", "", "coherence protocol at every grid point: snoop (default) or directory")
		wname    = flag.String("workload", "", "workload (default: all four)")
		scnArg   = flag.String("scenario", "", "declarative scenario: a spec file path or a preset name (replaces -workload)")
		sharers  = flag.String("sharers", "", "comma-separated sharing degrees to sweep (requires -scenario)")
		scale    = flag.Int("scale", 0, "scheduling rounds (0 = default)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		parallel = flag.Bool("parallel", true, "fan grid points across workers (output is identical to serial)")
		workers  = flag.Int("workers", 0, "worker count when parallel (0 = GOMAXPROCS)")
		stream   = flag.Bool("stream", false, "generate each workload concurrently with its simulation in bounded chunks (identical output, flat memory)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		verbose  = flag.Bool("v", false, "append per-worker scheduler stats (busy/idle time, runs, steals)")
	)
	flag.Parse()
	stopProfiles, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()
	axes := 0
	for _, s := range []string{*sizes, *lines, *sharers} {
		if s != "" {
			axes++
		}
	}
	if axes != 1 {
		fatal(fmt.Errorf("pass exactly one of -sizes, -linesizes or -sharers"))
	}
	if *sharers != "" && *scnArg == "" {
		fatal(fmt.Errorf("-sharers sweeps a scenario's sharing degree; pass -scenario too"))
	}
	if *scnArg != "" && *wname != "" {
		fatal(fmt.Errorf("pass either -workload or -scenario, not both"))
	}

	base := sim.DefaultParams()
	if *ncpus != 0 {
		base.NumCPUs = *ncpus
	}
	if *cohname != "" {
		kind, err := sim.ParseCoherence(*cohname)
		if err != nil {
			fatal(err)
		}
		base.Coherence = kind
	}

	var spec *scenario.Spec
	if *scnArg != "" {
		var err error
		spec, err = scenario.Resolve(*scnArg)
		if err != nil {
			fatal(err)
		}
	}

	var systems []core.System
	for _, s := range strings.Split(*sysList, ",") {
		sys, err := core.ParseSystem(strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		systems = append(systems, sys)
	}
	workloads := workload.Names()
	if *wname != "" {
		w, err := workload.ParseName(*wname)
		if err != nil {
			fatal(err)
		}
		workloads = []workload.Name{w}
	}
	if spec != nil {
		// One scenario replaces the workload axis.
		workloads = []workload.Name{workload.SpecWorkloadName(spec)}
	}

	// point is one grid cell: a machine geometry, and for sharing-degree
	// sweeps the degree-derived scenario spec.
	type point struct {
		label string
		p     sim.Params
		spec  *scenario.Spec
	}
	var grid []point
	switch {
	case *sizes != "":
		for _, tok := range strings.Split(*sizes, ",") {
			kb, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
			if err != nil {
				fatal(err)
			}
			p := base
			p.L1D.Size = kb * 1024
			grid = append(grid, point{fmt.Sprintf("%dKB", kb), p, spec})
		}
	case *lines != "":
		for _, tok := range strings.Split(*lines, ",") {
			ls, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
			if err != nil {
				fatal(err)
			}
			p := base
			p.L1D.LineSize = ls
			p.L1I.LineSize = ls
			p.L2.LineSize = *l2line
			if p.L2.LineSize < ls {
				p.L2.LineSize = ls
			}
			grid = append(grid, point{fmt.Sprintf("%dB", ls), p, spec})
		}
	default:
		for _, tok := range strings.Split(*sharers, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fatal(err)
			}
			if d < 1 || d > base.NumCPUs {
				fatal(fmt.Errorf("sharing degree %d outside [1, %d] (pass -cpus to widen the machine)", d, base.NumCPUs))
			}
			grid = append(grid, point{fmt.Sprintf("d=%d", d), base, spec.WithSharingDegree(d)})
		}
	}

	cfgFor := func(w workload.Name, pt point, sys core.System) core.RunConfig {
		p := pt.p
		cfg := core.RunConfig{
			System: sys, Scale: *scale, Seed: *seed,
			Machine: &p, Stream: *stream,
		}
		if pt.spec != nil {
			cfg.Scenario = pt.spec
		} else {
			cfg.Workload = w
		}
		return cfg
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := experiment.NewRunnerContext(ctx, experiment.Config{
		Scale: *scale, Seed: *seed, Parallel: *parallel, Workers: *workers, Stream: *stream,
	})

	// Warm the whole grid through the work-stealing scheduler, then
	// render serially from the cache — the printed sweep is identical
	// to a serial run, only the wall clock changes.
	var cfgs []core.RunConfig
	for _, w := range workloads {
		for _, pt := range grid {
			for _, sys := range systems {
				cfgs = append(cfgs, cfgFor(w, pt, sys))
			}
		}
	}
	if _, err := r.RunConfigs(ctx, cfgs, nil); err != nil {
		if errors.Is(err, context.Canceled) {
			fatal(fmt.Errorf("interrupted: %w", err))
		}
		fatal(err)
	}

	// Geometry sweeps normalize by OS execution time, the paper's
	// metric. Scenario sweeps are user-level studies, so they
	// normalize by total cycles and count all data-read misses.
	metric := func(o *core.Outcome) (uint64, uint64) {
		if spec != nil {
			return o.Counters.Cycles, o.Counters.TotalDReadMisses()
		}
		return o.OSTime(), o.Counters.OSDReadMisses()
	}
	for _, w := range workloads {
		fmt.Printf("== %s\n", w)
		for _, pt := range grid {
			var baseTime uint64
			fmt.Printf("  %-6s", pt.label)
			for i, sys := range systems {
				o, err := r.OutcomeConfig(ctx, cfgFor(w, pt, sys))
				if err != nil {
					if errors.Is(err, context.Canceled) {
						fmt.Println()
						fatal(fmt.Errorf("interrupted: %w", err))
					}
					fatal(err)
				}
				t, misses := metric(o)
				if i == 0 {
					baseTime = t
				}
				fmt.Printf("  %s=%.3f (misses=%d)", sys, float64(t)/float64(baseTime), misses)
			}
			fmt.Println()
		}
	}
	st := r.Stats()
	fmt.Printf("-- %d simulations, %d cache hits\n", st.Executions, st.Hits+st.Joins)
	if *verbose {
		for i, ws := range r.LastSchedulerStats() {
			fmt.Printf("   worker %d: runs=%d steals=%d busy=%s idle=%s\n",
				i, ws.Runs, ws.Steals,
				ws.Busy.Round(time.Millisecond), ws.Idle.Round(time.Millisecond))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
