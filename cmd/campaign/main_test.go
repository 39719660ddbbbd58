package main

import (
	"os"
	"os/exec"
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

// TestMain runs the command itself in place of the tests when
// CAMPAIGN_MAIN is set, so a test can drive it as a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("CAMPAIGN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestErrorPrefixedOnce pins that the command prints each error on one
// line under a single "campaign: " prefix: planner and selection
// errors carry the prefix already, other errors gain it.
func TestErrorPrefixedOnce(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-cpus", "0"}, "campaign: cpus[0] = 0: must be positive"},
		{[]string{"-row", "cpus"}, "campaign: -row = cpus: not a declared axis"},
		{[]string{"-workloads", "Nope"}, "campaign: workload: "},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "CAMPAIGN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("campaign %v: %v, want exit status 1\n%s", c.args, err, out)
		}
		line := string(out)
		if !strings.HasPrefix(line, c.want) || strings.Count(line, "campaign: ") != 1 || strings.Count(line, "\n") != 1 {
			t.Errorf("campaign %v printed %q, want one line starting %q with one prefix", c.args, line, c.want)
		}
	}
}
