package experiment

import (
	"fmt"
	"strings"

	"oscachesim/internal/bus"
	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/report"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// Figure1 regenerates the block-operation overhead decomposition: the
// relative weight of read stall, write stall, displacement stall and
// instruction execution (the paper reports roughly 30/30/10/30).
func Figure1(r *Runner) (string, error) {
	outs, err := baseOutcomes(r)
	if err != nil {
		return "", err
	}
	t := stats.Table{
		Title:   "Figure 1: Components of block-operation overhead (%) — measured (paper ~30/30/10/30)",
		Columns: workloadColumns("Component"),
	}
	labels := []struct {
		name string
		get  func(stats.BlockOverhead) uint64
		idx  int
	}{
		{"Read Stall", func(b stats.BlockOverhead) uint64 { return b.ReadStall }, 0},
		{"Write Stall", func(b stats.BlockOverhead) uint64 { return b.WriteStall }, 1},
		{"Displ. Stall", func(b stats.BlockOverhead) uint64 { return b.DisplStall }, 2},
		{"Instr. Exec.", func(b stats.BlockOverhead) uint64 { return b.InstrExec }, 3},
	}
	for _, l := range labels {
		cells := []string{l.name}
		for _, o := range outs {
			ov := o.Counters.BlockOverhead
			cells = append(cells, cell(pct(l.get(ov), ov.Total()), PaperFigure1[l.idx]))
		}
		t.AddRow(cells...)
	}
	return t.String(), nil
}

// missFigure renders one normalized-OS-miss figure over a system list
// as stacked bars, split the way the paper's figure splits them.
func missFigure(r *Runner, title string, systems []core.System, split func(*core.Outcome) (uint64, string), paper map[string][4]float64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for wi, w := range workload.Names() {
		base, err := r.Outcome(w, core.Base)
		if err != nil {
			return "", err
		}
		bm := float64(base.Counters.OSDReadMisses())
		chart := &report.Chart{Title: fmt.Sprintf("  %s:", w), Width: 44}
		for _, sys := range systems {
			o, err := r.Outcome(w, sys)
			if err != nil {
				return "", err
			}
			splitVal, name := split(o)
			total := float64(o.Counters.OSDReadMisses()) / bm
			part := float64(splitVal) / bm
			ann := fmt.Sprintf("total=%.2f %s=%.2f", total, name, part)
			if p, ok := paper[sys.String()]; ok {
				ann += fmt.Sprintf("  paper=%.2f", p[wi])
			}
			chart.Add(report.Bar{
				Name: sys.String(),
				Segments: []report.Segment{
					{Label: name, Value: part},
					{Label: "rest", Value: total - part},
				},
				Annotation: ann,
			})
		}
		b.WriteString(chart.String())
	}
	return b.String(), nil
}

// Figure2 regenerates the block-operation miss comparison: normalized
// OS read misses in the primary caches under Base, Blk_Pref,
// Blk_Bypass, Blk_ByPref and Blk_Dma, split into block misses and the
// rest.
func Figure2(r *Runner) (string, error) {
	return missFigure(r,
		"Figure 2: Normalized OS read misses under block-operation support — measured vs paper",
		[]core.System{core.Base, core.BlkPref, core.BlkBypass, core.BlkByPref, core.BlkDma},
		func(o *core.Outcome) (uint64, string) {
			return o.Counters.OSMissBy[stats.MissBlock], "block"
		},
		PaperFigure2)
}

// Figure4 regenerates the coherence-optimization miss comparison:
// Base, Blk_Dma, BCoh_Reloc and BCoh_RelUp, split into coherence
// misses and the rest.
func Figure4(r *Runner) (string, error) {
	return missFigure(r,
		"Figure 4: Normalized OS read misses under coherence optimizations — measured vs paper",
		[]core.System{core.Base, core.BlkDma, core.BCohReloc, core.BCohRelUp},
		func(o *core.Outcome) (uint64, string) {
			return o.Counters.OSMissBy[stats.MissCoherence], "coh"
		},
		PaperFigure4)
}

// Figure5 regenerates the hot-spot prefetching miss comparison: Base,
// Blk_Dma, BCoh_RelUp and BCPref, split into hot-spot misses and the
// rest.
func Figure5(r *Runner) (string, error) {
	return missFigure(r,
		"Figure 5: Normalized OS read misses with hot-spot prefetching — measured vs paper",
		[]core.System{core.Base, core.BlkDma, core.BCohRelUp, core.BCPref},
		func(o *core.Outcome) (uint64, string) {
			return o.Counters.OSHotSpotMisses, "hotspot"
		},
		PaperFigure5)
}

// Figure3 regenerates the OS execution-time comparison across all
// eight systems, with the paper's stacked-bar components. Lock-spin
// and barrier-wait time executes spin instructions on the real
// machine, so it reports under Exec, as the paper's accounting does.
func Figure3(r *Runner) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 3: Normalized OS execution time — measured vs paper\n")
	for wi, w := range workload.Names() {
		base, err := r.Outcome(w, core.Base)
		if err != nil {
			return "", err
		}
		bt := float64(base.OSTime())
		chart := &report.Chart{Title: fmt.Sprintf("  %s:", w), Width: 44}
		for _, sys := range core.Systems() {
			o, err := r.Outcome(w, sys)
			if err != nil {
				return "", err
			}
			ti := o.Counters.Time[trace.KindOS]
			ann := fmt.Sprintf("total=%.2f", float64(o.OSTime())/bt)
			if p, ok := PaperFigure3[sys.String()]; ok {
				ann += fmt.Sprintf("  paper=%.2f", p[wi])
			}
			chart.Add(report.Bar{
				Name: sys.String(),
				Segments: []report.Segment{
					// Spin-wait executes instructions, so Sync reports
					// under Exec, as in the paper's accounting.
					{Label: "exec", Value: float64(ti.Exec+ti.Sync) / bt},
					{Label: "imiss", Value: float64(ti.IMiss) / bt},
					{Label: "dwrite", Value: float64(ti.DWrite) / bt},
					{Label: "dread", Value: float64(ti.DRead) / bt},
					{Label: "pref", Value: float64(ti.Pref) / bt},
				},
				Annotation: ann,
			})
		}
		b.WriteString(chart.String())
	}
	// The paper's headline aggregates.
	var remain, speed float64
	for _, w := range workload.Names() {
		base, err := r.Outcome(w, core.Base)
		if err != nil {
			return "", err
		}
		full, err := r.Outcome(w, core.BCPref)
		if err != nil {
			return "", err
		}
		remain += 100 * stats.Ratio(full.Counters.OSDReadMisses(), base.Counters.OSDReadMisses())
		speed += 100 * (1 - float64(full.OSTime())/float64(base.OSTime()))
	}
	n := float64(len(workload.Names()))
	fmt.Fprintf(&b, "  Aggregate: BCPref eliminates or hides %.0f%% of OS data misses (paper: %.0f%%) and speeds the OS up by %.0f%% (paper: %.0f%%)\n",
		100-remain/n, PaperMissesEliminated, speed/n, PaperOSSpeedup)
	return b.String(), nil
}

// geometryFigure renders an execution-time sweep over the one machine
// axis g declares, for every workload under Base, Blk_Dma and BCPref:
// each system's OS time normalized to Base at each point, a value of
// axis labelled with unit. The cells come from the campaign planner,
// which owns the rule that turns a geometry into a machine, and are
// read serially, so the render runs at most one simulation at a time.
func geometryFigure(r *Runner, title, axis, unit string, g campaign.Grid) (string, error) {
	g.Workloads = workload.Names()
	g.Systems = []core.System{core.Base, core.BlkDma, core.BCPref}
	g.Scale, g.Seed = r.cfg.Scale, r.cfg.Seed
	plan, err := campaign.NewPlan(g)
	if err != nil {
		return "", err
	}
	outs := make([]*core.Outcome, len(plan.Cells))
	for i, c := range plan.Cells {
		if outs[i], err = r.OutcomeConfig(r.ctx, c.Cfg); err != nil {
			return "", err
		}
	}
	// Cells run workload, then point, then system innermost.
	nsys := len(g.Systems)
	npts := len(plan.Cells) / len(g.Workloads) / nsys
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for wi, w := range g.Workloads {
		fmt.Fprintf(&b, "  %s: (normalized to Base at each %s)\n", w, axis)
		for si, sys := range g.Systems {
			fmt.Fprintf(&b, "    %-8s", sys)
			for pt := 0; pt < npts; pt++ {
				row := (wi*npts + pt) * nsys
				// Axes[1] is the one machine axis, between workload and system.
				label := plan.Cells[row].Coords[plan.Axes[1]] + unit
				fmt.Fprintf(&b, "  %s=%5.2f", label, float64(outs[row+si].OSTime())/float64(outs[row].OSTime()))
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("  (Paper: Blk_Dma always outperforms Base and BCPref always outperforms Blk_Dma at every point.)\n")
	return b.String(), nil
}

// Figure6 regenerates the primary-cache-size sweep (16/32/64 KB, line
// size fixed at 16 bytes; 256-KB L2 with 32-byte lines).
func Figure6(r *Runner) (string, error) {
	return geometryFigure(r, "Figure 6: Normalized OS execution time vs primary data cache size", "size", "KB",
		campaign.Grid{L1SizesKB: []uint64{16, 32, 64}})
}

// Figure7 regenerates the line-size sweep (16/32/64-byte L1D lines,
// 32-KB cache; the paper pairs it with a 64-byte-line secondary cache).
func Figure7(r *Runner) (string, error) {
	return geometryFigure(r, "Figure 7: Normalized OS execution time vs primary data cache line size", "line size", "B",
		campaign.Grid{LineSizes: []uint64{16, 32, 64}, L2Line: 64})
}

// UpdateTraffic regenerates the Section 5.2 traffic study: the bus
// traffic of selective update (BCoh_RelUp) relative to the pure
// invalidate protocol (BCoh_Reloc), and the update traffic it saves
// relative to a machine-wide update protocol.
func UpdateTraffic(r *Runner) (string, error) {
	var b strings.Builder
	b.WriteString("Section 5.2: selective-update traffic — measured vs paper\n")
	for _, w := range workload.Names() {
		inval, err := r.Outcome(w, core.BCohReloc)
		if err != nil {
			return "", err
		}
		sel, err := r.Outcome(w, core.BCohRelUp)
		if err != nil {
			return "", err
		}
		cfg := r.configFor(w, core.BCohReloc)
		cfg.PureUpdate = true
		pure, err := r.OutcomeConfig(r.ctx, cfg)
		if err != nil {
			return "", err
		}
		trafficDelta := 100 * (float64(sel.Counters.Bus.TotalBytes())/float64(inval.Counters.Bus.TotalBytes()) - 1)
		selUpd := float64(sel.Counters.Bus.Bytes[bus.KindUpdate])
		pureUpd := float64(pure.Counters.Bus.Bytes[bus.KindUpdate])
		saved := 0.0
		if pureUpd > 0 {
			saved = 100 * (1 - selUpd/pureUpd)
		}
		missDelta := 100 * (float64(sel.Counters.OSDReadMisses())/float64(pure.Counters.OSDReadMisses()) - 1)
		fmt.Fprintf(&b, "  %-11s traffic vs invalidate: %+5.1f%% (paper: +3..+6%%)   update traffic saved vs pure update: %5.1f%% (paper: 31..52%%)   misses vs pure update: %+5.1f%% (paper: +1..+3%%)\n",
			w, trafficDelta, saved, missDelta)
	}
	return b.String(), nil
}
