package campaign

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

func sharingPreset(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Preset("sharing")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// figure3Grid is the acceptance grid: the paper's Figure 3 comparison
// at two machine widths under both coherence protocols.
func figure3Grid() Grid {
	return Grid{
		Workloads: []workload.Name{"TRFD_4"},
		Systems:   []core.System{core.Base, core.BCPref},
		CPUs:      []int{4, 16},
		Coherence: []sim.CoherenceKind{sim.CoherenceSnoop, sim.CoherenceDirectory},
		Scale:     1,
		Seed:      1,
	}
}

func TestExpandDeterministicCoords(t *testing.T) {
	g := figure3Grid()
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	wantAxes := []string{AxisWorkload, AxisCPUs, AxisCoherence, AxisSystem}
	if got := g.axes(); strings.Join(got, ",") != strings.Join(wantAxes, ",") {
		t.Errorf("axes %v, want %v", got, wantAxes)
	}
	// Expansion order: workload, cpus, coherence, system (innermost).
	first := cells[0]
	if first.Coords[AxisWorkload] != "TRFD_4" || first.Coords[AxisCPUs] != "4" ||
		first.Coords[AxisCoherence] != "snoop" || first.Coords[AxisSystem] != "Base" {
		t.Errorf("first cell coords %v", first.Coords)
	}
	last := cells[len(cells)-1]
	if last.Coords[AxisCPUs] != "16" || last.Coords[AxisCoherence] != "directory" ||
		last.Coords[AxisSystem] != "BCPref" {
		t.Errorf("last cell coords %v", last.Coords)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Cfg.Machine == nil {
			t.Errorf("cell %d: geometry axes must set an explicit machine", i)
		}
		if c.Key == "" || len(c.Key) != 64 {
			t.Errorf("cell %d key %q", i, c.Key)
		}
	}
	// Deterministic: a second expansion yields identical keys.
	again, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Key != again[i].Key {
			t.Fatalf("cell %d key changed across expansions", i)
		}
	}
}

// TestNoMachineAxesKeepsNilMachine pins the dedup property against
// plain /v1/runs jobs: a grid without geometry axes leaves Machine nil,
// so its cells' canonical keys equal a bare run configuration's.
func TestNoMachineAxesKeepsNilMachine(t *testing.T) {
	g := Grid{
		Workloads: []workload.Name{"TRFD_4"},
		Systems:   []core.System{core.Base},
		Scale:     2,
		Seed:      7,
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("%d cells", len(cells))
	}
	if cells[0].Cfg.Machine != nil {
		t.Fatal("machine set without geometry axes")
	}
	plain := core.RunConfig{Workload: "TRFD_4", System: core.Base, Scale: 2, Seed: 7}
	if cells[0].Key != plain.CanonicalKey() {
		t.Errorf("cell key %s != plain run key %s", cells[0].Key, plain.CanonicalKey())
	}
}

func TestPlanGroupsDuplicates(t *testing.T) {
	g := figure3Grid()
	// A duplicated CPU value halves the distinct work.
	g.CPUs = []int{4, 4}
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != 8 {
		t.Fatalf("%d cells, want 8", len(p.Cells))
	}
	if len(p.Unique) != 4 {
		t.Fatalf("%d unique configs, want 4", len(p.Unique))
	}
	for key, idxs := range p.ByKey {
		if len(idxs) != 2 {
			t.Errorf("key %s credited to %d cells, want 2", key[:8], len(idxs))
		}
	}
}

func TestGridBoundsRejected(t *testing.T) {
	g := Grid{
		Workloads: []workload.Name{"TRFD_4"},
		Systems:   []core.System{core.Base},
	}
	for n := 1; n <= DefaultMaxCells+1; n++ {
		g.CPUs = append(g.CPUs, n)
	}
	_, err := g.Expand()
	var fe *FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("oversized grid: %v, want *FieldError", err)
	}
	if fe.Field != "grid" {
		t.Errorf("field %q, want grid", fe.Field)
	}
}

func TestFieldErrors(t *testing.T) {
	cases := []struct {
		name  string
		grid  Grid
		field string
	}{
		{"no workload", Grid{Systems: []core.System{core.Base}}, "workloads"},
		{"both workload sources", Grid{
			Workloads: []workload.Name{"TRFD_4"},
			Scenario:  sharingPreset(t),
			Systems:   []core.System{core.Base},
		}, "workloads"},
		{"no systems", Grid{Workloads: []workload.Name{"TRFD_4"}}, "systems"},
		{"sharers without scenario", Grid{
			Workloads: []workload.Name{"TRFD_4"},
			Systems:   []core.System{core.Base},
			Sharers:   []int{2},
		}, "sharers"},
		{"bad cpu", Grid{
			Workloads: []workload.Name{"TRFD_4"},
			Systems:   []core.System{core.Base},
			CPUs:      []int{0},
		}, "cpus[0]"},
		{"sharers beyond machine", Grid{
			Scenario: sharingPreset(t),
			Systems:  []core.System{core.Base},
			Sharers:  []int{9}, // default machine has 4 CPUs
		}, "sharers[0]"},
	}
	for _, tc := range cases {
		_, err := tc.grid.Expand()
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: %v, want *FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, fe.Field, tc.field)
		}
	}
}

// stubRunner is a deterministic ConfigRunner: it synthesizes one
// outcome per configuration and counts executions.
type stubRunner struct {
	mu    sync.Mutex
	calls int
	block chan struct{} // when non-nil, configs after the first block here
}

func (r *stubRunner) RunConfigsEach(ctx context.Context, cfgs []core.RunConfig, each func(int, *core.Outcome)) ([]*core.Outcome, error) {
	outs := make([]*core.Outcome, len(cfgs))
	for i, cfg := range cfgs {
		if r.block != nil && i > 0 {
			select {
			case <-r.block:
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
		}
		r.mu.Lock()
		r.calls++
		r.mu.Unlock()
		o := &core.Outcome{Config: cfg}
		outs[i] = o
		if each != nil {
			each(i, o)
		}
	}
	return outs, nil
}

func TestRunFansDuplicatesOut(t *testing.T) {
	g := figure3Grid()
	g.CPUs = []int{4, 4} // 8 cells, 4 unique
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	r := &stubRunner{}
	var prog Progress
	cells, err := Run(context.Background(), r, p, &prog)
	if err != nil {
		t.Fatal(err)
	}
	if r.calls != 4 {
		t.Errorf("runner executed %d configs, want 4 (duplicates planned once)", r.calls)
	}
	if len(cells) != 8 {
		t.Fatalf("%d cell outcomes, want 8", len(cells))
	}
	// Duplicate cells share the exact outcome object.
	byKey := map[string]*core.Outcome{}
	for _, co := range cells {
		if prev, ok := byKey[co.Cell.Key]; ok && prev != co.Outcome {
			t.Errorf("cells sharing key %s got distinct outcomes", co.Cell.Key[:8])
		}
		byKey[co.Cell.Key] = co.Outcome
	}
	snap := prog.Snapshot()
	if snap.CellsDone != 8 || snap.CellsTotal != 8 || snap.UniqueDone != 4 || snap.UniqueTotal != 4 {
		t.Errorf("final snapshot %+v", snap)
	}
}

// TestRunCancellationMidGrid cancels after the first configuration
// completes: Run must return the partial cells alongside the error.
func TestRunCancellationMidGrid(t *testing.T) {
	g := figure3Grid() // 8 cells, 8 unique
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	r := &stubRunner{block: make(chan struct{})}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	var prog Progress
	done := make(chan struct{})
	var cells []CellOutcome
	var runErr error
	go func() {
		defer close(done)
		cells, runErr = Run(ctx, r, p, &prog)
	}()
	// Wait for the first config to complete, then cancel mid-grid.
	for prog.Snapshot().UniqueDone == 0 {
		time.Sleep(time.Millisecond)
	}
	cause := errors.New("canceled by test")
	cancel(cause)
	<-done

	if !errors.Is(runErr, cause) {
		t.Fatalf("Run returned %v, want the cancel cause", runErr)
	}
	if len(cells) != 1 {
		t.Fatalf("partial result has %d cells, want 1", len(cells))
	}
	if cells[0].Cell.Index != 0 || cells[0].Outcome == nil {
		t.Errorf("partial cell %+v", cells[0])
	}
	snap := prog.Snapshot()
	if snap.UniqueDone != 1 || snap.CellsDone != 1 {
		t.Errorf("snapshot after cancel %+v", snap)
	}
}
