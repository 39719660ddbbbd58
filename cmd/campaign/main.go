// Command campaign runs batch experiment grids: the cross product of
// a workload axis, machine-geometry axes (processor count, coherence
// protocol, cache and line sizes), an optional scenario sharing-degree
// axis, and the system axis — submitted as one declarative plan. Cells
// that expand to the same canonical configuration are simulated once
// and credited everywhere, and the result renders as the paper's
// normalized stacked-time comparison plus an optional machine-readable
// axis diff (e.g. snoop vs directory at each CPU count).
//
// With -v it also prints one compact line per grid point, each system
// normalized to the first with its miss count (the Figures 6-7 view),
// and the worker pool's per-worker busy/idle time.
//
// The same grids are served over HTTP by ossimd's POST /v1/campaigns;
// this command is the offline equivalent, sharing the planner and the
// runner's worker pool and store-backed result cache.
//
// Usage:
//
//	campaign -workloads TRFD_4 -systems Base,BCPref -cpus 4,16 \
//	         -coherence snoop,directory -diff coherence:snoop:directory
//	campaign -scenario sharing -sharers 1,2,4,8 -cpus 8 -row sharers
//	campaign -workloads TRFD_4,TRFD+Make,ARC2D+Fsck,Shell -sizes 16,32,64 -v
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"oscachesim/internal/report"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

func main() {
	var (
		wnames   = flag.String("workloads", "TRFD_4", "comma-separated workload axis")
		scnArg   = flag.String("scenario", "", "declarative scenario: a spec file path or a preset name (replaces -workloads)")
		sysList  = flag.String("systems", "Base,Blk_Dma,BCPref", "comma-separated system axis")
		cpus     = flag.String("cpus", "", "comma-separated processor-count axis")
		cohList  = flag.String("coherence", "", "comma-separated coherence axis (snoop, directory)")
		sizes    = flag.String("sizes", "", "comma-separated L1D-size axis in KB")
		lines    = flag.String("linesizes", "", "comma-separated L1D line-size axis in bytes")
		l2line   = flag.Uint64("l2line", 0, "L2 line size in bytes during a line-size axis (0 = base machine's)")
		sharers  = flag.String("sharers", "", "comma-separated sharing-degree axis (requires -scenario)")
		row      = flag.String("row", campaign.AxisSystem, "report row axis (one bar per value)")
		diffArg  = flag.String("diff", "", "machine-readable axis diff as axis:from:to (e.g. coherence:snoop:directory)")
		scale    = flag.Int("scale", 0, "scheduling rounds (0 = default)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		maxCells = flag.Int("maxcells", 0, "grid-size bound (0 = the default 256)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "simulations run at once (1 = serial; output is identical)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		verbose  = flag.Bool("v", false, "print one normalized line per grid point and per-worker pool stats")
	)
	flag.Parse()
	stopProfiles, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	g := campaign.Grid{
		L2Line: *l2line, Scale: *scale, Seed: *seed, MaxCells: *maxCells,
	}
	if *scnArg != "" {
		spec, err := scenario.Resolve(*scnArg)
		if err != nil {
			fatal(err)
		}
		g.Scenario = spec
	} else {
		for _, tok := range splitList(*wnames) {
			w, err := workload.ParseName(tok)
			if err != nil {
				fatal(err)
			}
			g.Workloads = append(g.Workloads, w)
		}
	}
	for _, tok := range splitList(*sysList) {
		sys, err := core.ParseSystem(tok)
		if err != nil {
			fatal(err)
		}
		g.Systems = append(g.Systems, sys)
	}
	if g.CPUs, err = parseInts(*cpus); err != nil {
		fatal(err)
	}
	if g.Sharers, err = parseInts(*sharers); err != nil {
		fatal(err)
	}
	if g.L1SizesKB, err = parseUints(*sizes); err != nil {
		fatal(err)
	}
	if g.LineSizes, err = parseUints(*lines); err != nil {
		fatal(err)
	}
	for _, tok := range splitList(*cohList) {
		kind, err := sim.ParseCoherence(tok)
		if err != nil {
			fatal(err)
		}
		g.Coherence = append(g.Coherence, kind)
	}

	plan, err := campaign.NewPlan(g)
	if err != nil {
		fatal(err)
	}
	var diff *campaign.Diff
	if *diffArg != "" {
		parts := strings.SplitN(*diffArg, ":", 3)
		if len(parts) != 3 {
			fatal(fmt.Errorf("-diff wants axis:from:to, got %q", *diffArg))
		}
		diff = &campaign.Diff{Axis: parts[0], From: parts[1], To: parts[2]}
	}
	if err := plan.CheckSelection(*row, diff, "-row", "-diff "); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := experiment.NewRunnerContext(ctx, experiment.Config{Scale: *scale, Seed: *seed, Workers: *workers})

	fmt.Fprintf(os.Stderr, "campaign: %d cells (%d unique) across axes %v\n",
		len(plan.Cells), len(plan.Unique), plan.Axes)
	prog := &campaign.Progress{}
	progDone := make(chan struct{})
	go narrate(prog, progDone)
	cells, err := campaign.Run(ctx, r, plan, prog)
	close(progDone)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fatal(fmt.Errorf("interrupted after %d of %d cells: %w",
				len(cells), len(plan.Cells), err))
		}
		fatal(err)
	}

	grid := campaign.GridCells(cells)
	title := fmt.Sprintf("campaign: OS time by %s (normalized per group)", *row)
	fmt.Print(campaign.Chart(title, *row, grid))
	if diff != nil {
		campaign.WriteDiffText(os.Stdout, diff.Axis, diff.From, diff.To,
			report.DiffCells(grid, diff.Axis, diff.From, diff.To, campaign.DiffMetrics))
	}
	if *verbose {
		fmt.Println()
		writeRows(os.Stdout, plan, cells)
	}
	st := r.Stats()
	fmt.Printf("-- %d simulations for %d cells (%d deduplicated), %d cache hits\n",
		st.Executions, len(cells), len(cells)-len(plan.Unique), st.Hits+st.Joins)
	if *verbose {
		for i, ws := range r.LastSchedulerStats() {
			fmt.Printf("   worker %d: runs=%d busy=%s idle=%s\n",
				i, ws.Runs, ws.Busy.Round(time.Millisecond), ws.Idle.Round(time.Millisecond))
		}
	}
}

// pointFormats label a grid point's value on each axis a -v row can
// vary along.
var pointFormats = map[string]string{
	campaign.AxisCPUs:      "%scpu",
	campaign.AxisCoherence: "%s",
	campaign.AxisL1KB:      "%sKB",
	campaign.AxisLineB:     "%sB",
	campaign.AxisSharers:   "d=%s",
}

// writeRows prints the compact -v view: a header whenever the workload
// changes, then one line per grid point with each system normalized to
// the plan's first system and its miss count. A workload grid reports
// OS time and OS data-read misses, the paper's metric; a scenario grid
// is a user-level study, so it reports total cycles and all data-read
// misses. A row is labelled by the axes that take more than one value.
func writeRows(w io.Writer, p *campaign.Plan, cells []campaign.CellOutcome) {
	var varying []string
	for _, axis := range p.Axes {
		if pointFormats[axis] != "" && len(p.AxisValues(axis)) > 1 {
			varying = append(varying, axis)
		}
	}
	metric := func(o *core.Outcome) (uint64, uint64) {
		if p.Grid.Scenario != nil {
			return o.Counters.Cycles, o.Counters.TotalDReadMisses()
		}
		return o.OSTime(), o.Counters.OSDReadMisses()
	}
	// Cells come system-innermost, so each run of len(Systems) cells is
	// one row.
	nsys := len(p.Grid.Systems)
	var workloadLabel string
	var baseTime uint64
	for _, co := range cells {
		coords := co.Cell.Coords
		if wl := coords[campaign.AxisWorkload]; wl != workloadLabel {
			workloadLabel = wl
			fmt.Fprintf(w, "== %s\n", wl)
		}
		t, misses := metric(co.Outcome)
		i := co.Cell.Index % nsys
		if i == 0 {
			baseTime = t
			var label []string
			for _, axis := range varying {
				label = append(label, fmt.Sprintf(pointFormats[axis], coords[axis]))
			}
			fmt.Fprintf(w, "  %-6s", strings.Join(label, " "))
		}
		fmt.Fprintf(w, "  %s=%.3f (misses=%d)", coords[campaign.AxisSystem], float64(t)/float64(baseTime), misses)
		if i == nsys-1 {
			fmt.Fprintln(w)
		}
	}
}

// narrate prints aggregate progress to stderr once a second until the
// run finishes.
func narrate(prog *campaign.Progress, done <-chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			s := prog.Snapshot()
			line := fmt.Sprintf("campaign: %d/%d cells (%d/%d unique)",
				s.CellsDone, s.CellsTotal, s.UniqueDone, s.UniqueTotal)
			if s.ETA > 0 {
				line += fmt.Sprintf(", eta %s", s.ETA.Round(time.Second))
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range splitList(s) {
		n, err := strconv.Atoi(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, tok := range splitList(s) {
		n, err := strconv.ParseUint(tok, 10, 32)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// fatal prints err under the command's "campaign:" prefix, which the
// planner's own errors already carry, and exits.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "campaign: ") {
		msg = "campaign: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
