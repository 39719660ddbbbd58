// Command ossim runs one workload under one system configuration and
// prints a full measurement report: execution-time decomposition, miss
// taxonomy, block-operation characteristics and bus traffic.
//
// Usage:
//
//	ossim [-workload TRFD_4] [-system Base] [-scale N] [-seed N] [-check]
//	ossim -scenario fs-naive           # a built-in scenario preset
//	ossim -scenario my-workload.json   # a declarative scenario spec file
//	ossim -list-workloads              # enumerate workloads and presets
//	ossim -trace t.trk [-system S] [-cpus N] [-coherence C] [-l1wb] [-pure-update] [-check]
//	ossim -v           # append the per-stage timing breakdown
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oscachesim/internal/check"
	"oscachesim/internal/core"
	"oscachesim/internal/prof"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

func main() {
	var (
		wname   = flag.String("workload", string(workload.TRFD4), "workload: TRFD_4, TRFD+Make, ARC2D+Fsck, Shell")
		sname   = flag.String("system", "Base", "system: Base, Blk_Pref, Blk_Bypass, Blk_ByPref, Blk_Dma, BCoh_Reloc, BCoh_RelUp, BCPref")
		scale   = flag.Int("scale", 0, "scheduling rounds to generate (0 = workload default)")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		dcopy   = flag.Bool("deferred-copy", false, "enable the deferred sub-page copy optimization")
		pureUp  = flag.Bool("pure-update", false, "use the update protocol on every page")
		tfile   = flag.String("trace", "", "simulate this captured trace file instead of generating a workload")
		docheck = flag.Bool("check", false, "run the differential oracle in lockstep and fail on any divergence")
		verbose = flag.Bool("v", false, "append the per-stage timing breakdown (and generator stalls when streaming)")
		ncpus   = flag.Int("cpus", 0, "processor count (0 = the paper's 4; directory coherence allows up to 256)")
		cohname = flag.String("coherence", "", "coherence protocol: snoop (default) or directory")
		l1wb    = flag.Bool("l1wb", false, "make the primary data cache write-back (stores to L2-owned lines complete locally)")
		scnArg  = flag.String("scenario", "", "declarative scenario: a spec file path or a preset name (see -list-workloads)")
		listW   = flag.Bool("list-workloads", false, "list the built-in workloads and scenario presets, then exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()

	if *listW {
		listWorkloads()
		return
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProfiles, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	sys, err := core.ParseSystem(*sname)
	if err != nil {
		fatal(err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	cfg := core.RunConfig{
		System: sys, Scale: *scale, Seed: *seed,
		DeferredCopy: *dcopy, PureUpdate: *pureUp,
		Machine: machineFromFlags(*ncpus, *cohname, *l1wb),
	}
	var k *check.Checker
	if *docheck {
		cfg.Monitor = func(s *sim.Simulator) { k = check.Attach(s) }
	}
	var o *core.Outcome
	if *tfile != "" {
		// The trace fixes the workload: a flag that shapes generation
		// cannot apply, so it is refused rather than ignored.
		for _, name := range []string{"workload", "scenario", "scale", "seed", "deferred-copy"} {
			if set[name] {
				fatal(fmt.Errorf("-%s does not apply to -trace: the trace fixes the workload", name))
			}
		}
		o, err = replayTraceFile(ctx, *tfile, cfg)
	} else {
		if *scnArg != "" {
			if set["workload"] {
				fatal(fmt.Errorf("pass either -workload or -scenario, not both"))
			}
			spec, err := scenario.Resolve(*scnArg)
			if err != nil {
				fatal(err)
			}
			cfg.Scenario = spec
		} else {
			w, err := workload.ParseName(*wname)
			if err != nil {
				fatal(err)
			}
			cfg.Workload = w
		}
		o, err = core.Run(ctx, cfg)
	}
	if err != nil {
		fatal(err)
	}
	renderStart := time.Now()
	report(o)
	if *verbose {
		reportStages(o, time.Since(renderStart))
	}
	if *docheck {
		if err := verifyRun(k, o); err != nil {
			fatal(err)
		}
		fmt.Printf("\ncheck: ok (%d events verified, no divergence)\n", k.Events())
	}
}

// verifyRun applies the full oracle verdict after a -check run: event
// divergences first (with every recorded instance), then the counter
// cross-check and the conservation laws.
func verifyRun(k *check.Checker, o *core.Outcome) error {
	if divs := k.Report(); len(divs) > 0 {
		for _, d := range divs {
			fmt.Fprintln(os.Stderr, "ossim: divergence:", d)
		}
		if n := k.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "ossim: ... and %d more divergences not shown\n", n)
		}
		return fmt.Errorf("oracle diverged %d time(s)", uint64(len(divs))+k.Dropped())
	}
	if err := k.VerifyCounters(o.Counters, o.Refs); err != nil {
		return err
	}
	return check.VerifyOutcome(o)
}

// replayTraceFile simulates a captured trace — the paper's own mode of
// operation — on cfg's machine. The software-side optimizations are
// whatever the trace was captured with; the file's path stands in for
// the workload's name in the report.
func replayTraceFile(ctx context.Context, path string, cfg core.RunConfig) (*core.Outcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := trace.OpenSource(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// A reference names its processor in one byte, so 256 streams hold
	// any trace; Replay refuses one that names more processors than
	// the machine has.
	per, err := trace.SplitByCPU(src, 1<<8)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for len(per) > 0 && len(per[len(per)-1]) == 0 {
		per = per[:len(per)-1]
	}
	cfg.Workload = workload.Name(path)
	return core.Replay(ctx, cfg, per)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ossim:", err)
	os.Exit(1)
}

// listWorkloads prints the built-in workload profiles and scenario
// presets with their one-line descriptions.
func listWorkloads() {
	fmt.Println("Built-in workloads (-workload):")
	for _, w := range workload.Names() {
		fmt.Printf("  %-12s %s\n", w, workload.Description(w))
	}
	fmt.Println("\nScenario presets (-scenario, or pass a spec file path):")
	for _, name := range scenario.PresetNames() {
		fmt.Printf("  %-12s %s\n", name, scenario.PresetDescription(name))
	}
}

// machineFromFlags builds the machine override the -cpus, -coherence
// and -l1wb flags describe, or nil when all are at their defaults (so
// the run keeps the paper's machine and its golden byte-identity).
func machineFromFlags(ncpus int, cohname string, l1wb bool) *sim.Params {
	if ncpus == 0 && cohname == "" && !l1wb {
		return nil
	}
	p := sim.DefaultParams()
	if ncpus != 0 {
		p.NumCPUs = ncpus
	}
	if cohname != "" {
		kind, err := sim.ParseCoherence(cohname)
		if err != nil {
			fatal(err)
		}
		p.Coherence = kind
	}
	p.L1WriteBack = l1wb
	return &p
}

// reportStages prints the -v timing appendix using the same stage
// taxonomy the ossimd daemon exports as ossimd_run_stage_seconds, with
// this invocation's report rendering as the render stage. Stream time
// overlaps simulation, so the total excludes it; generator stalls show
// how often (and how long) generation waited on the simulation.
func reportStages(o *core.Outcome, render time.Duration) {
	st := o.Stages
	st.Render = render
	fmt.Printf("\nStage breakdown (total %s):\n", st.Total().Round(time.Microsecond))
	if st.Build > 0 {
		fmt.Printf("  build     %12s\n", st.Build.Round(time.Microsecond))
	}
	if st.Stream > 0 {
		fmt.Printf("  stream    %12s  (overlapped with simulate)\n", st.Stream.Round(time.Microsecond))
	}
	fmt.Printf("  simulate  %12s\n", st.Simulate.Round(time.Microsecond))
	fmt.Printf("  render    %12s\n", st.Render.Round(time.Microsecond))
	if st.Stream > 0 {
		fmt.Printf("  generator stalls: %d (%s blocked in the pipeline)\n",
			o.GenStalls, o.GenStallTime.Round(time.Microsecond))
	}
}

func report(o *core.Outcome) {
	c := o.Counters
	fmt.Printf("workload=%s system=%s refs=%d cycles=%d\n\n",
		o.Config.Workload, o.Config.System, o.Refs, c.Cycles)

	tot := c.TotalTime()
	fmt.Println("Execution time by mode:")
	for _, k := range []trace.Kind{trace.KindUser, trace.KindOS, trace.KindIdle} {
		ti := c.Time[k]
		fmt.Printf("  %-5s %6.1f%%  [exec=%d imiss=%d dread=%d pref=%d dwrite=%d sync=%d]\n",
			k, 100*stats.Ratio(ti.Total(), tot), ti.Exec, ti.IMiss, ti.DRead, ti.Pref, ti.DWrite, ti.Sync)
	}

	fmt.Printf("\nPrimary data cache: reads=%d misses=%d (%.2f%% miss rate)\n",
		c.TotalDReads(), c.TotalDReadMisses(), 100*c.D1MissRate())
	fmt.Printf("OS share: %.1f%% of reads, %.1f%% of misses\n",
		100*stats.Ratio(c.DReads[trace.KindOS], c.TotalDReads()),
		100*stats.Ratio(c.OSDReadMisses(), c.TotalDReadMisses()))

	osTotal := c.OSMissBy[0] + c.OSMissBy[1] + c.OSMissBy[2]
	fmt.Printf("\nOS miss breakdown (n=%d):\n", osTotal)
	for cls := stats.MissClass(0); cls < stats.NumMissClasses; cls++ {
		fmt.Printf("  %-10s %6.1f%%\n", cls, 100*stats.Ratio(c.OSMissBy[cls], osTotal))
	}
	var cohTotal uint64
	for _, v := range c.OSCohBy {
		cohTotal += v
	}
	if cohTotal > 0 {
		fmt.Printf("\nCoherence miss breakdown (n=%d):\n", cohTotal)
		for cls := stats.CohClass(0); cls < stats.NumCohClasses; cls++ {
			fmt.Printf("  %-12s %6.1f%%\n", cls, 100*stats.Ratio(c.OSCohBy[cls], cohTotal))
		}
	}

	bl := c.Block
	fmt.Printf("\nBlock operations: %d (%d copies)\n", bl.Ops, bl.Copies)
	if bl.Ops > 0 {
		fmt.Printf("  src lines cached %.1f%%, dst lines L2-owned %.1f%%, L2-shared %.1f%%\n",
			100*stats.Ratio(bl.SrcLinesCached, bl.SrcLinesTotal),
			100*stats.Ratio(bl.DstLinesL2Owned, bl.DstLinesTotal),
			100*stats.Ratio(bl.DstLinesL2Shared, bl.DstLinesTotal))
		fmt.Printf("  sizes: page %.1f%%, 1-4KB %.1f%%, <1KB %.1f%%\n",
			100*stats.Ratio(bl.SizePage, bl.Ops),
			100*stats.Ratio(bl.SizeMid, bl.Ops),
			100*stats.Ratio(bl.SizeSmall, bl.Ops))
		ov := c.BlockOverhead
		fmt.Printf("  overhead: read %.0f%%, write %.0f%%, displacement %.0f%%, instr %.0f%%\n",
			100*stats.Ratio(ov.ReadStall, ov.Total()), 100*stats.Ratio(ov.WriteStall, ov.Total()),
			100*stats.Ratio(ov.DisplStall, ov.Total()), 100*stats.Ratio(ov.InstrExec, ov.Total()))
	}

	d := o.Deferred
	if d.BlockCopies > 0 {
		fmt.Printf("\nCopies: %d total, %d sub-page (%.1f%%), %.1f%% of sub-page read-only\n",
			d.BlockCopies, d.SmallCopies,
			100*stats.Ratio(d.SmallCopies, d.BlockCopies),
			100*stats.Ratio(d.ReadOnlySmallCopies, d.SmallCopies))
		if d.DeferredElided > 0 {
			fmt.Printf("  deferred: %d elided, %d performed at first write\n", d.DeferredElided, d.DeferredPerformed)
		}
	}

	fmt.Printf("\nBus: %d transactions, %d bytes, busy %.1f%% of %d cycles, wait %d cycles\n",
		c.Bus.TotalTransactions(), c.Bus.TotalBytes(),
		100*float64(c.Bus.BusyCycles)/float64(c.Cycles), c.Cycles, c.Bus.WaitCycles)
	fmt.Printf("Prefetches: %d issued, %d late\n", c.Prefetches, c.LatePrefetches)
}
