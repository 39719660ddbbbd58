// Command sweep runs parameter sweeps: cache-geometry grids (the
// Figures 6-7 studies, generalized to arbitrary grids) and scenario
// sharing-degree sweeps. For each grid point it simulates the chosen
// systems and prints normalized OS execution time and miss counts.
//
// Simulations run through an experiment.Runner, whose memo is the
// same kind of content-addressed store the ossimd daemon serves from, so
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
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/experiment"
	"oscachesim/internal/prof"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

func main() {
	var (
		sizes   = flag.String("sizes", "", "comma-separated L1D sizes in KB to sweep")
		lines   = flag.String("linesizes", "", "comma-separated L1D line sizes in bytes to sweep")
		l2line  = flag.Uint64("l2line", 32, "L2 line size in bytes during a line-size sweep")
		sysList = flag.String("systems", "Base,Blk_Dma,BCPref", "comma-separated systems")
		ncpus   = flag.Int("cpus", 0, "processor count at every grid point (0 = the paper's 4)")
		cohname = flag.String("coherence", "", "coherence protocol at every grid point: snoop (default) or directory")
		wname   = flag.String("workload", "", "workload (default: all four)")
		scnArg  = flag.String("scenario", "", "declarative scenario: a spec file path or a preset name (replaces -workload)")
		sharers = flag.String("sharers", "", "comma-separated sharing degrees to sweep (requires -scenario)")
		scale   = flag.Int("scale", 0, "scheduling rounds (0 = default)")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "simulations run at once (1 = serial; output is identical)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		verbose = flag.Bool("v", false, "append per-worker pool stats (busy/idle time, runs)")
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
	if *scnArg != "" && *wname != "" {
		fatal(fmt.Errorf("pass either -workload or -scenario, not both"))
	}

	// Every cell carries the explicit base machine, as the sweep always
	// has, so its canonical keys match earlier sweeps' cached results.
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
	g := campaign.Grid{
		Base: &base, L2Line: *l2line, Scale: *scale, Seed: *seed,
	}
	switch {
	case *scnArg != "":
		spec, err := scenario.Resolve(*scnArg)
		if err != nil {
			fatal(err)
		}
		g.Scenario = spec
	case *wname != "":
		w, err := workload.ParseName(*wname)
		if err != nil {
			fatal(err)
		}
		g.Workloads = []workload.Name{w}
	default:
		g.Workloads = workload.Names()
	}
	for _, s := range strings.Split(*sysList, ",") {
		sys, err := core.ParseSystem(strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		g.Systems = append(g.Systems, sys)
	}
	g.L1SizesKB = uints(*sizes)
	g.LineSizes = uints(*lines)
	for _, d := range uints(*sharers) {
		g.Sharers = append(g.Sharers, int(d))
	}
	plan, err := campaign.NewPlan(g)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := experiment.NewRunnerContext(ctx, experiment.Config{Scale: *scale, Seed: *seed, Workers: *workers})

	// Run the grid's unique cells through the runner's worker pool,
	// then render serially, reading each cell back from the runner's
	// cache — the printed sweep is identical to a serial run, and the
	// closing line counts those reads as cache hits, as it always has.
	if _, err := campaign.Run(ctx, r, plan, nil); err != nil {
		if errors.Is(err, context.Canceled) {
			fatal(fmt.Errorf("interrupted: %w", err))
		}
		fatal(err)
	}

	// Geometry sweeps normalize by OS execution time, the paper's
	// metric. Scenario sweeps are user-level studies, so they
	// normalize by total cycles and count all data-read misses.
	metric := func(o *core.Outcome) (uint64, uint64) {
		if g.Scenario != nil {
			return o.Counters.Cycles, o.Counters.TotalDReadMisses()
		}
		return o.OSTime(), o.Counters.OSDReadMisses()
	}
	// Cells come system-innermost, so each run of len(g.Systems) cells
	// is one printed row: a workload header whenever it changes, then
	// the row's grid point and its systems normalized to the first.
	var workloadLabel string
	var baseTime uint64
	for _, c := range plan.Cells {
		if w := c.Coords[campaign.AxisWorkload]; w != workloadLabel {
			workloadLabel = w
			fmt.Printf("== %s\n", w)
		}
		o, err := r.OutcomeConfig(ctx, c.Cfg)
		if err != nil {
			fatal(err)
		}
		t, misses := metric(o)
		i := c.Index % len(g.Systems)
		if i == 0 {
			baseTime = t
			fmt.Printf("  %-6s", pointLabel(c.Coords))
		}
		fmt.Printf("  %s=%.3f (misses=%d)", c.Coords[campaign.AxisSystem], float64(t)/float64(baseTime), misses)
		if i == len(g.Systems)-1 {
			fmt.Println()
		}
	}
	st := r.Stats()
	fmt.Printf("-- %d simulations, %d cache hits\n", st.Executions, st.Hits+st.Joins)
	if *verbose {
		for i, ws := range r.LastSchedulerStats() {
			fmt.Printf("   worker %d: runs=%d busy=%s idle=%s\n",
				i, ws.Runs,
				ws.Busy.Round(time.Millisecond), ws.Idle.Round(time.Millisecond))
		}
	}
}

// pointLabel names a cell's grid point on the sweep's one geometry or
// sharing axis: "32KB", "64B" or "d=4".
func pointLabel(coords map[string]string) string {
	if v, ok := coords[campaign.AxisL1KB]; ok {
		return v + "KB"
	}
	if v, ok := coords[campaign.AxisLineB]; ok {
		return v + "B"
	}
	return "d=" + coords[campaign.AxisSharers]
}

// uints parses a comma-separated flag value; empty yields nothing.
func uints(s string) []uint64 {
	if s == "" {
		return nil
	}
	var out []uint64
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
		if err != nil {
			fatal(err)
		}
		out = append(out, n)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
