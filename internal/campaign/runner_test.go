package campaign_test

import (
	"context"
	"strings"
	"testing"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/experiment"
	"oscachesim/internal/report"
	"oscachesim/internal/workload"
)

// TestRunRealRunner runs a tiny grid end to end on the real
// experiment runner and checks the report projections.
func TestRunRealRunner(t *testing.T) {
	g := campaign.Grid{
		Workloads: []workload.Name{"TRFD_4"},
		Systems:   []core.System{core.Base, core.BCPref},
		Scale:     1,
		Seed:      1,
	}
	p, err := campaign.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	r := experiment.NewRunner(experiment.Config{Scale: 1, Seed: 1})
	var prog campaign.Progress
	cells, err := campaign.Run(context.Background(), r, p, &prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	grid := campaign.GridCells(cells)
	for i, gc := range grid {
		if gc.Values["os_cycles"] <= 0 || gc.Values["cycles"] <= 0 {
			t.Errorf("cell %d values %v", i, gc.Values)
		}
	}
	chart := campaign.Chart("test", campaign.AxisSystem, grid)
	for _, want := range []string{"Base", "BCPref", "total="} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	rows := report.DiffCells(grid, campaign.AxisSystem, "Base", "BCPref", campaign.DiffMetrics)
	if len(rows) != len(campaign.DiffMetrics) {
		t.Fatalf("%d diff rows, want %d", len(rows), len(campaign.DiffMetrics))
	}
	for _, row := range rows {
		if row.From <= 0 {
			t.Errorf("diff row %s from %v", row.Metric, row.From)
		}
	}
	st := prog.Snapshot()
	if st.Stages.Simulate <= 0 {
		t.Errorf("aggregate stages %+v, want simulate > 0", st.Stages)
	}
}
