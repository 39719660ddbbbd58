package experiment

import (
	"fmt"

	"oscachesim/internal/core"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// cell formats "measured (paper)" for one workload column.
func cell(measured, paper float64) string {
	return fmt.Sprintf("%5.1f (%.1f)", measured, paper)
}

// pct is a shorthand percentage.
func pct(num, den uint64) float64 { return 100 * stats.Ratio(num, den) }

// baseOutcomes fetches the Base outcome of every workload.
func baseOutcomes(r *Runner) ([]*core.Outcome, error) {
	var outs []*core.Outcome
	for _, w := range workload.Names() {
		o, err := r.Outcome(w, core.Base)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// workloadColumns returns the table header cells.
func workloadColumns(first string) []string {
	cols := []string{first}
	for _, w := range workload.Names() {
		cols = append(cols, string(w))
	}
	return cols
}

// Table1 regenerates the workload-characteristics table.
func Table1(r *Runner) (string, error) {
	outs, err := baseOutcomes(r)
	if err != nil {
		return "", err
	}
	t := stats.Table{
		Title:   "Table 1: Characteristics of the workloads studied — measured (paper)",
		Columns: workloadColumns("Characteristic"),
	}
	row := func(label, key string, get func(*core.Outcome) float64) {
		cells := []string{label}
		for i, o := range outs {
			cells = append(cells, cell(get(o), PaperTable1[key][i]))
		}
		t.AddRow(cells...)
	}
	row("User Time (%)", "user", func(o *core.Outcome) float64 {
		return pct(o.Counters.Time[trace.KindUser].Total(), o.Counters.TotalTime())
	})
	row("Idle Time (%)", "idle", func(o *core.Outcome) float64 {
		return pct(o.Counters.Time[trace.KindIdle].Total(), o.Counters.TotalTime())
	})
	row("OS Time (%)", "os", func(o *core.Outcome) float64 {
		return pct(o.Counters.OSTime(), o.Counters.TotalTime())
	})
	row("Stall Due to OS D-Accesses (% of Total)", "stall", func(o *core.Outcome) float64 {
		osT := o.Counters.Time[trace.KindOS]
		return pct(osT.DRead+osT.Pref+osT.DWrite, o.Counters.TotalTime())
	})
	row("D-Miss Rate in Primary Cache (%)", "missrate", func(o *core.Outcome) float64 {
		return 100 * o.Counters.D1MissRate()
	})
	row("OS D-Reads / Total D-Reads (%)", "osdreads", func(o *core.Outcome) float64 {
		return pct(o.Counters.DReads[trace.KindOS], o.Counters.TotalDReads())
	})
	row("OS D-Misses / Total D-Misses (%)", "osdmisses", func(o *core.Outcome) float64 {
		return pct(o.Counters.OSDReadMisses(), o.Counters.TotalDReadMisses())
	})
	return t.String(), nil
}

// Table2 regenerates the OS data-miss breakdown.
func Table2(r *Runner) (string, error) {
	outs, err := baseOutcomes(r)
	if err != nil {
		return "", err
	}
	t := stats.Table{
		Title:   "Table 2: Breakdown of operating system data misses (read misses only) — measured (paper)",
		Columns: workloadColumns("Source of OS Data Misses"),
	}
	labels := []struct {
		name string
		cls  stats.MissClass
		key  string
	}{
		{"Block Op. (%)", stats.MissBlock, "block"},
		{"Coherence (%)", stats.MissCoherence, "coherence"},
		{"Other (%)", stats.MissOther, "other"},
	}
	for _, l := range labels {
		cells := []string{l.name}
		for i, o := range outs {
			total := o.Counters.OSMissBy[0] + o.Counters.OSMissBy[1] + o.Counters.OSMissBy[2]
			cells = append(cells, cell(pct(o.Counters.OSMissBy[l.cls], total), PaperTable2[l.key][i]))
		}
		t.AddRow(cells...)
	}
	return t.String(), nil
}

// Table3 regenerates the block-operation characteristics. Rows 1-8 are
// measured on the Base system; the reuse rows (9-10) require the
// cache-bypassing probe run, exactly as in the paper.
func Table3(r *Runner) (string, error) {
	outs, err := baseOutcomes(r)
	if err != nil {
		return "", err
	}
	var bypass []*core.Outcome
	for _, w := range workload.Names() {
		o, err := r.Outcome(w, core.BlkBypass)
		if err != nil {
			return "", err
		}
		bypass = append(bypass, o)
	}
	t := stats.Table{
		Title:   "Table 3: Characteristics of the block operations — measured (paper)",
		Columns: workloadColumns("Characteristic"),
	}
	row := func(label, key string, get func(*core.Outcome) float64, src []*core.Outcome) {
		cells := []string{label}
		for i, o := range src {
			cells = append(cells, cell(get(o), PaperTable3[key][i]))
		}
		t.AddRow(cells...)
	}
	row("Src lines already cached (%)", "srccached", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.SrcLinesCached, o.Counters.Block.SrcLinesTotal)
	}, outs)
	row("Dst lines in L2 Dirty or Excl. (%)", "dstowned", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.DstLinesL2Owned, o.Counters.Block.DstLinesTotal)
	}, outs)
	row("Dst lines in L2 Shared (%)", "dstshared", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.DstLinesL2Shared, o.Counters.Block.DstLinesTotal)
	}, outs)
	row("Blocks of size = 4 KB (%)", "sizepage", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.SizePage, o.Counters.Block.Ops)
	}, outs)
	row("Blocks 1 KB <= size < 4 KB (%)", "sizemid", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.SizeMid, o.Counters.Block.Ops)
	}, outs)
	row("Blocks of size < 1 KB (%)", "sizesmall", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.SizeSmall, o.Counters.Block.Ops)
	}, outs)
	row("Inside displ. misses / total misses (%)", "indispl", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.InsideDispl, o.Counters.TotalDReadMisses())
	}, outs)
	row("Outside displ. misses / total misses (%)", "outdispl", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.OutsideDispl, o.Counters.TotalDReadMisses())
	}, outs)
	row("Inside reuses / total misses (%)", "inreuse", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.InsideReuse, o.Counters.TotalDReadMisses())
	}, bypass)
	row("Outside reuses / total misses (%)", "outreuse", func(o *core.Outcome) float64 {
		return pct(o.Counters.Block.OutsideReuse, o.Counters.TotalDReadMisses())
	}, bypass)
	return t.String(), nil
}

// Table4 regenerates the deferred-copy study: the share and nature of
// sub-page copies (from the Base kernel) and the misses eliminated by
// deferring them (Base vs deferred-copy run).
func Table4(r *Runner) (string, error) {
	t := stats.Table{
		Title:   "Table 4: Characteristics of copies of blocks smaller than a page — measured (paper)",
		Columns: workloadColumns("Metric"),
	}
	small := []string{"Small Block Copies / Block Copies (%)"}
	ro := []string{"Read-Only Small Copies / Small Copies (%)"}
	elim := []string{"Misses Eliminated by Deferred Copy (%)"}
	for i, w := range workload.Names() {
		base, err := r.Outcome(w, core.Base)
		if err != nil {
			return "", err
		}
		cfg := r.configFor(w, core.Base)
		cfg.DeferredCopy = true
		dc, err := r.OutcomeConfig(r.ctx, cfg)
		if err != nil {
			return "", err
		}
		d := base.Deferred
		small = append(small, cell(pct(d.SmallCopies, d.BlockCopies), PaperTable4["smallcopies"][i]))
		ro = append(ro, cell(pct(d.ReadOnlySmallCopies, d.SmallCopies), PaperTable4["readonly"][i]))
		baseM := base.Counters.TotalDReadMisses()
		dcM := dc.Counters.TotalDReadMisses()
		var elimPct float64
		if baseM > dcM {
			elimPct = 100 * float64(baseM-dcM) / float64(baseM)
		}
		elim = append(elim, cell(elimPct, PaperTable4["eliminated"][i]))
	}
	t.AddRow(small...)
	t.AddRow(ro...)
	t.AddRow(elim...)
	return t.String(), nil
}

// Table5 regenerates the coherence-miss breakdown.
func Table5(r *Runner) (string, error) {
	outs, err := baseOutcomes(r)
	if err != nil {
		return "", err
	}
	t := stats.Table{
		Title:   "Table 5: Breakdown of coherence misses in the operating system — measured (paper)",
		Columns: workloadColumns("Source of Misses"),
	}
	labels := []struct {
		name string
		cls  stats.CohClass
		key  string
	}{
		{"Barriers (%)", stats.CohBarrier, "barriers"},
		{"Infreq. Com. (%)", stats.CohInfreqComm, "infreq"},
		{"Freq. Shared (%)", stats.CohFreqShared, "freq"},
		{"Locks (%)", stats.CohLock, "locks"},
		{"Other (%)", stats.CohOther, "other"},
	}
	for _, l := range labels {
		cells := []string{l.name}
		for i, o := range outs {
			var total uint64
			for _, v := range o.Counters.OSCohBy {
				total += v
			}
			cells = append(cells, cell(pct(o.Counters.OSCohBy[l.cls], total), PaperTable5[l.key][i]))
		}
		t.AddRow(cells...)
	}
	return t.String(), nil
}
