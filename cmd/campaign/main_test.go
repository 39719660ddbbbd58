package main

import (
	"strings"
	"testing"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// fixedCells pairs every cell of g's plan with a synthetic outcome
// whose OS time, total cycles, OS misses and user misses all differ,
// so the rendered metric shows which counters the row read.
func fixedCells(t *testing.T, g campaign.Grid) (*campaign.Plan, []campaign.CellOutcome) {
	t.Helper()
	p, err := campaign.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]campaign.CellOutcome, len(p.Cells))
	for i, c := range p.Cells {
		o := &core.Outcome{}
		o.Counters.Time[trace.KindOS].Exec = uint64(100 - 10*i)
		o.Counters.Cycles = uint64(1000 + 500*i)
		o.Counters.DReadMisses[trace.KindOS] = uint64(10 + i)
		o.Counters.DReadMisses[trace.KindUser] = 1000
		cells[i] = campaign.CellOutcome{Cell: c, Outcome: o}
	}
	return p, cells
}

// TestWriteRowsWorkloadGrid pins the -v view of a workload grid: OS
// time normalized to the first system, and OS data-read misses.
func TestWriteRowsWorkloadGrid(t *testing.T) {
	p, cells := fixedCells(t, campaign.Grid{
		Workloads: []workload.Name{workload.TRFD4},
		Systems:   []core.System{core.Base, core.BCPref},
		L1SizesKB: []uint64{16, 32},
	})
	var b strings.Builder
	writeRows(&b, p, cells)
	want := "== TRFD_4\n" +
		"  16KB    Base=1.000 (misses=10)  BCPref=0.900 (misses=11)\n" +
		"  32KB    Base=1.000 (misses=12)  BCPref=0.875 (misses=13)\n"
	if b.String() != want {
		t.Errorf("rows:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriteRowsScenarioGrid pins the -v view of a scenario grid: total
// cycles normalized to the first system, and data-read misses in every
// mode. The single-valued cpus axis stays out of the row label.
func TestWriteRowsScenarioGrid(t *testing.T) {
	spec, err := scenario.Resolve("sharing")
	if err != nil {
		t.Fatal(err)
	}
	p, cells := fixedCells(t, campaign.Grid{
		Scenario: spec,
		Systems:  []core.System{core.Base, core.BlkDma},
		CPUs:     []int{4},
		Sharers:  []int{1, 4},
	})
	var b strings.Builder
	writeRows(&b, p, cells)
	want := "== scenario:sharing\n" +
		"  d=1     Base=1.000 (misses=1010)  Blk_Dma=1.500 (misses=1011)\n" +
		"  d=4     Base=1.000 (misses=1012)  Blk_Dma=1.250 (misses=1013)\n"
	if b.String() != want {
		t.Errorf("rows:\n%s\nwant:\n%s", b.String(), want)
	}
}
