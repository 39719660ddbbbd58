package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
	cells, err := g.expand()
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
	again, err := g.expand()
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
	cells, err := g.expand()
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
	_, err := g.expand()
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
		_, err := tc.grid.expand()
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

// TestExpansionPinned pins the whole expansion: for grids over every
// axis it hashes each cell's index, coordinates, canonical key and
// whether the cell carries an explicit machine, and for invalid grids
// it pins the error text. Stored campaign records are keyed by a hash
// of their cells' keys, so a cell key or order that moves orphans
// every stored campaign; a change here must be deliberate.
func TestExpansionPinned(t *testing.T) {
	wide := sim.DefaultParams()
	wide.NumCPUs = 8
	wide.Coherence = sim.CoherenceDirectory
	bad := sim.DefaultParams()
	bad.L1D.LineSize = 3
	all := core.Systems()
	cases := []struct {
		name string
		grid Grid
		want string // cells digest, or the error text
	}{
		{"cpus x coherence", figure3Grid(), "2b570a6e5f02421d"},
		{"sizes over two workloads", Grid{
			Workloads: []workload.Name{"TRFD_4", "Shell"},
			Systems:   []core.System{core.Base, core.BlkDma},
			L1SizesKB: []uint64{16, 32, 64},
			Scale:     2, Seed: 5,
		}, "9a34a618ae39629f"},
		{"line sizes with l2 line", Grid{
			Workloads: []workload.Name{"ARC2D+Fsck"},
			Systems:   []core.System{core.Base, core.BCPref},
			LineSizes: []uint64{16, 32, 128},
			L2Line:    64,
			Stream:    true,
		}, "3aae4b97f1d776d2"},
		{"sharers on a scenario", Grid{
			Scenario: sharingPreset(t),
			Systems:  []core.System{core.Base, core.BCPref},
			CPUs:     []int{8, 16},
			Sharers:  []int{1, 2, 8},
			Seed:     3,
		}, "890b2071ef94a909"},
		{"base override, no axes", Grid{
			Workloads: []workload.Name{"TRFD_4", "TRFD+Make"},
			Systems:   all,
			Base:      &wide,
			Scale:     1, Seed: 1,
		}, "0fa739f89faf881d"},
		{"every machine axis over a base", Grid{
			Workloads: []workload.Name{"Shell"},
			Systems:   []core.System{core.BlkPref},
			Base:      &wide,
			CPUs:      []int{2, 8},
			Coherence: []sim.CoherenceKind{sim.CoherenceDirectory, sim.CoherenceSnoop},
			L1SizesKB: []uint64{8, 64},
			LineSizes: []uint64{32, 16},
		}, "2ea82b0d25ac1ee9"},
		{"no machine axis", Grid{
			Workloads: []workload.Name{"TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"},
			Systems:   all,
			Scale:     3, Seed: 2,
		}, "ac172f7f09faf390"},

		{"no workload", Grid{Systems: []core.System{core.Base}}, "campaign: workloads: pass at least one workload or a scenario"},
		{"both workload sources", Grid{
			Workloads: []workload.Name{"TRFD_4"}, Scenario: sharingPreset(t), Systems: []core.System{core.Base},
		}, "campaign: workloads: pass either workloads or a scenario, not both"},
		{"no systems", Grid{Workloads: []workload.Name{"TRFD_4"}}, "campaign: systems: pass at least one system"},
		{"sharers without scenario", Grid{
			Workloads: []workload.Name{"TRFD_4"}, Systems: []core.System{core.Base}, Sharers: []int{2},
		}, "campaign: sharers: sharers sweeps a scenario's sharing degree; pass a scenario too"},
		{"too many cells", Grid{
			Workloads: []workload.Name{"TRFD_4", "Shell"}, Systems: all, CPUs: []int{1, 2, 4, 8},
			L1SizesKB: []uint64{8, 16, 32, 64, 128},
		}, "campaign: grid = 320: expands to 320 cells, exceeding the maximum 256"},
		{"unknown workload", Grid{
			Workloads: []workload.Name{"TRFD_4", "nope"}, Systems: []core.System{core.Base},
		}, "campaign: workloads[1] = nope: workload: unknown name \"nope\" (want one of [TRFD_4 TRFD+Make ARC2D+Fsck Shell])"},
		{"bad cpu", Grid{
			Workloads: []workload.Name{"TRFD_4"}, Systems: []core.System{core.Base},
			CPUs: []int{4, 0}, Coherence: []sim.CoherenceKind{sim.CoherenceSnoop},
		}, "campaign: cpus[1] = 0: must be positive"},
		{"bad size", Grid{
			Workloads: []workload.Name{"TRFD_4"}, Systems: []core.System{core.Base},
			L1SizesKB: []uint64{32, 0},
		}, "campaign: sizes_kb[1] = 0: must be positive"},
		{"bad line", Grid{
			Workloads: []workload.Name{"TRFD_4"}, Systems: []core.System{core.Base},
			LineSizes: []uint64{0},
		}, "campaign: line_sizes[0] = 0: must be positive"},
		{"invalid machine point", Grid{
			Workloads: []workload.Name{"TRFD_4"}, Systems: []core.System{core.Base},
			Coherence: []sim.CoherenceKind{sim.CoherenceDirectory, sim.CoherenceSnoop}, CPUs: []int{128},
		}, "campaign: machine = cpus=128: sim: NumCPUs = 128: processor count must be in [1, 64] for snoop coherence"},
		{"invalid base", Grid{
			Workloads: []workload.Name{"Shell"}, Systems: []core.System{core.Base}, Base: &bad,
		}, "campaign: machine = Shell: sim: L1D.LineSize = 3: line size must be a power of two"},
		{"sharers beyond machine", Grid{
			Scenario: sharingPreset(t), Systems: []core.System{core.Base},
			CPUs: []int{8, 4}, Sharers: []int{2, 8},
		}, "campaign: sharers[1] = 8: outside [1, 4] (widen the machine with cpus or machine.num_cpus)"},
		{"sharers zero", Grid{
			Scenario: sharingPreset(t), Systems: []core.System{core.Base}, Sharers: []int{0},
		}, "campaign: sharers[0] = 0: outside [1, 4] (widen the machine with cpus or machine.num_cpus)"},
	}
	for _, tc := range cases {
		cells, err := tc.grid.expand()
		got := ""
		if err != nil {
			got = err.Error()
		} else {
			h := sha256.New()
			for _, c := range cells {
				fmt.Fprintf(h, "%d %v %s %t\n", c.Index, c.Coords, c.Key, c.Cfg.Machine == nil)
			}
			got = hex.EncodeToString(h.Sum(nil))[:16]
		}
		if got != tc.want {
			t.Errorf("%s: expansion %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCheckSelection covers the one report-selection check the daemon
// and the CLI share: the row axis, then the diff axis and its values,
// each failure named by the caller's field path.
func TestCheckSelection(t *testing.T) {
	p, err := NewPlan(figure3Grid())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		row   string
		diff  *Diff
		field string // "" = accepted
	}{
		{AxisSystem, nil, ""},
		{AxisCPUs, &Diff{Axis: AxisCoherence, From: "snoop", To: "directory"}, ""},
		{AxisL1KB, nil, "row"},
		{AxisSystem, &Diff{Axis: AxisSharers, From: "1", To: "2"}, "diff.axis"},
		{AxisSystem, &Diff{Axis: AxisCPUs, From: "8", To: "16"}, "diff.from"},
		{AxisSystem, &Diff{Axis: AxisSystem, From: "Base", To: "Blk_Dma"}, "diff.to"},
	}
	for _, tc := range cases {
		err := p.CheckSelection(tc.row, tc.diff, "row", "diff.")
		var fe *FieldError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("row %s diff %+v: %v, want accepted", tc.row, tc.diff, err)
		case tc.field != "" && (!errors.As(err, &fe) || fe.Field != tc.field):
			t.Errorf("row %s diff %+v: %v, want a *FieldError on %s", tc.row, tc.diff, err, tc.field)
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
