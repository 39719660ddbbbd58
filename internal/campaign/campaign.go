// Package campaign turns the repo's experiments into a product: a
// declarative parameter grid — workload/scenario × machine geometry ×
// coherence protocol × optimization system, with explicit bounds on
// grid size — expanded into fully validated core.RunConfig cells.
//
// Cells sharing a canonical key (core.RunConfig.CanonicalKey) are
// planned once: NewPlan groups duplicates so Run hands the
// experiment runner's worker pool only the unique configurations and
// fans each result back to every cell that asked for it. Progress
// aggregates across the whole grid (cells done/total, per-stage wall
// clock from core.StageTimings, an ETA from the unique-work completion
// rate), and report.go projects completed cells onto the
// internal/report grid renderers — the paper's Figure 3 stacked bars
// at any machine geometry, plus benchdiff-style axis diffs.
package campaign

import (
	"fmt"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// Axis names, in expansion order (outermost first; System innermost).
// A cell's Coords map uses exactly these keys for the axes its grid
// declared; Workload and System are always present.
const (
	AxisWorkload  = "workload"
	AxisCPUs      = "cpus"
	AxisCoherence = "coherence"
	AxisL1KB      = "l1_kb"
	AxisLineB     = "line_b"
	AxisSharers   = "sharers"
	AxisSystem    = "system"
)

// DefaultMaxCells bounds a grid whose MaxCells is zero. The bound
// exists so a declarative request cannot expand into a queue flood:
// expansion fails loudly instead of planning an unbounded grid.
const DefaultMaxCells = 256

// FieldError is a grid validation failure attributable to one field,
// named by its dotted path ("cpus[1]", "sharers[0]", "grid").
type FieldError struct {
	// Field is the dotted/indexed field path.
	Field string
	// Value is the rejected value, rendered.
	Value string
	// Reason explains the constraint that failed.
	Reason string
}

// Error formats the violation.
func (e *FieldError) Error() string {
	if e.Value == "" {
		return fmt.Sprintf("campaign: %s: %s", e.Field, e.Reason)
	}
	return fmt.Sprintf("campaign: %s = %s: %s", e.Field, e.Value, e.Reason)
}

func fieldErr(field string, value any, format string, args ...any) error {
	v := ""
	if value != nil {
		v = fmt.Sprintf("%v", value)
	}
	return &FieldError{Field: field, Value: v, Reason: fmt.Sprintf(format, args...)}
}

// Grid declares a campaign: the cross product of a workload axis and
// optional machine/scenario axes, each cell simulated under every
// listed system. Empty optional axes contribute nothing to the
// product; the base machine's value holds there.
type Grid struct {
	// Workloads is the workload axis: one column per built-in profile.
	// Mutually exclusive with Scenario.
	Workloads []workload.Name
	// Scenario replaces the workload axis with one declarative
	// workload (required by Sharers).
	Scenario *scenario.Spec
	// Systems is the optimization axis (at least one required).
	Systems []core.System
	// CPUs is the machine-width axis.
	CPUs []int
	// Coherence is the protocol axis.
	Coherence []sim.CoherenceKind
	// L1SizesKB sweeps the primary data cache size.
	L1SizesKB []uint64
	// LineSizes sweeps the L1 line size (L1I follows, and the L2 line
	// is raised to match when smaller).
	LineSizes []uint64
	// L2Line is the L2 line size during a line-size axis (0 = the base
	// machine's).
	L2Line uint64
	// Sharers sweeps the scenario's sharing degree; each degree must
	// fit the cell's CPU count.
	Sharers []int
	// Base optionally overrides the base machine at every cell; nil
	// means the paper's machine.
	Base *sim.Params
	// Scale and Seed apply to every cell (core.RunConfig).
	Scale int
	Seed  int64
	// Deprecated: Stream is copied into each cell's Cfg, where core.Run
	// ignores it: a cell streams if and only if it is multi-round.
	Stream bool
	// MaxCells bounds the expanded grid (0 = DefaultMaxCells).
	MaxCells int
}

// Cell is one expanded grid point: a coordinate on every declared
// axis and the fully validated configuration to simulate there.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int
	// Coords locates the cell on the declared axes (AxisWorkload and
	// AxisSystem always present).
	Coords map[string]string
	// Cfg always passes sim.Params.Validate when it carries a machine.
	Cfg core.RunConfig
	// Key is Cfg.CanonicalKey(), computed once at expansion.
	Key string
}

// axes returns the grid's declared axis names in expansion order.
func (g *Grid) axes() []string {
	out := []string{AxisWorkload}
	if len(g.CPUs) > 0 {
		out = append(out, AxisCPUs)
	}
	if len(g.Coherence) > 0 {
		out = append(out, AxisCoherence)
	}
	if len(g.L1SizesKB) > 0 {
		out = append(out, AxisL1KB)
	}
	if len(g.LineSizes) > 0 {
		out = append(out, AxisLineB)
	}
	if len(g.Sharers) > 0 {
		out = append(out, AxisSharers)
	}
	return append(out, AxisSystem)
}

// size returns the cell count the grid expands to.
func (g *Grid) size() int {
	n := len(g.Workloads)
	if g.Scenario != nil {
		n = 1
	}
	for _, l := range []int{len(g.CPUs), len(g.Coherence), len(g.L1SizesKB), len(g.LineSizes), len(g.Sharers)} {
		if l > 0 {
			n *= l
		}
	}
	return n * len(g.Systems)
}

// Expand validates the grid and produces its cells in deterministic
// order: workload outermost, then CPUs, coherence, L1 size, line size,
// sharing degree, and system innermost. All failures are *FieldError
// values naming the offending field.
func (g *Grid) Expand() ([]Cell, error) {
	if g.Scenario != nil && len(g.Workloads) > 0 {
		return nil, fieldErr("workloads", nil, "pass either workloads or a scenario, not both")
	}
	if g.Scenario == nil && len(g.Workloads) == 0 {
		return nil, fieldErr("workloads", nil, "pass at least one workload or a scenario")
	}
	if len(g.Systems) == 0 {
		return nil, fieldErr("systems", nil, "pass at least one system")
	}
	if len(g.Sharers) > 0 && g.Scenario == nil {
		return nil, fieldErr("sharers", nil, "sharers sweeps a scenario's sharing degree; pass a scenario too")
	}
	maxCells := g.MaxCells
	if maxCells <= 0 {
		maxCells = DefaultMaxCells
	}
	if n := g.size(); n > maxCells {
		return nil, fieldErr("grid", n, "expands to %d cells, exceeding the maximum %d", n, maxCells)
	}

	// The workload axis: profile names, or the one scenario.
	type wl struct {
		label string
		name  workload.Name
		spec  *scenario.Spec
	}
	var wls []wl
	if g.Scenario != nil {
		wls = []wl{{label: string(workload.SpecWorkloadName(g.Scenario)), spec: g.Scenario}}
	} else {
		for i, name := range g.Workloads {
			if _, err := workload.ParseName(string(name)); err != nil {
				return nil, fieldErr(fmt.Sprintf("workloads[%d]", i), name, "%v", err)
			}
			wls = append(wls, wl{label: string(name), name: name})
		}
	}

	base := sim.DefaultParams()
	if g.Base != nil {
		base = *g.Base
	}
	// An axis value index of -1 marks an undeclared axis: one pass that
	// keeps the base machine's value and records no coordinate.
	idxs := func(n int) []int {
		if n == 0 {
			return []int{-1}
		}
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}

	// machineAxes: without any geometry axis or base override, cells
	// keep a nil Machine so their canonical keys match plain runs of
	// the same configuration (nil and the explicit default machine
	// hash differently).
	machineAxes := g.Base != nil ||
		len(g.CPUs) > 0 || len(g.Coherence) > 0 || len(g.L1SizesKB) > 0 || len(g.LineSizes) > 0

	var cells []Cell
	for _, w := range wls {
		for _, ci := range idxs(len(g.CPUs)) {
			for _, hi := range idxs(len(g.Coherence)) {
				for _, ki := range idxs(len(g.L1SizesKB)) {
					for _, li := range idxs(len(g.LineSizes)) {
						p := base
						coords := map[string]string{AxisWorkload: w.label}
						if ci >= 0 {
							n := g.CPUs[ci]
							if n <= 0 {
								return nil, fieldErr(fmt.Sprintf("cpus[%d]", ci), n, "must be positive")
							}
							p.NumCPUs = n
							coords[AxisCPUs] = fmt.Sprintf("%d", n)
						}
						if hi >= 0 {
							p.Coherence = g.Coherence[hi]
							coords[AxisCoherence] = g.Coherence[hi].String()
						}
						if ki >= 0 {
							kb := g.L1SizesKB[ki]
							if kb == 0 {
								return nil, fieldErr(fmt.Sprintf("sizes_kb[%d]", ki), kb, "must be positive")
							}
							p.L1D.Size = kb * 1024
							coords[AxisL1KB] = fmt.Sprintf("%d", kb)
						}
						if li >= 0 {
							line := g.LineSizes[li]
							if line == 0 {
								return nil, fieldErr(fmt.Sprintf("line_sizes[%d]", li), line, "must be positive")
							}
							p.L1D.LineSize = line
							p.L1I.LineSize = line
							if g.L2Line > 0 {
								p.L2.LineSize = g.L2Line
							}
							if p.L2.LineSize < line {
								p.L2.LineSize = line
							}
							coords[AxisLineB] = fmt.Sprintf("%d", line)
						}
						if machineAxes {
							if err := p.Validate(); err != nil {
								return nil, fieldErr("machine", coordLabel(coords), "%v", err)
							}
						}
						for _, si := range idxs(len(g.Sharers)) {
							spec := w.spec
							if si >= 0 {
								d := g.Sharers[si]
								if d < 1 || d > p.NumCPUs {
									return nil, fieldErr(fmt.Sprintf("sharers[%d]", si), d,
										"outside [1, %d] (widen the machine with cpus or machine.num_cpus)", p.NumCPUs)
								}
								spec = spec.WithSharingDegree(d)
							}
							for _, sys := range g.Systems {
								cfg := core.RunConfig{
									System: sys, Scale: g.Scale, Seed: g.Seed, Stream: g.Stream,
								}
								if machineAxes {
									machine := p
									cfg.Machine = &machine
								}
								if spec != nil {
									cfg.Scenario = spec
									cfg.Workload = workload.SpecWorkloadName(spec)
								} else {
									cfg.Workload = w.name
								}
								cc := make(map[string]string, len(coords)+2)
								for k, v := range coords {
									cc[k] = v
								}
								if si >= 0 {
									cc[AxisSharers] = fmt.Sprintf("%d", g.Sharers[si])
								}
								cc[AxisSystem] = sys.String()
								cells = append(cells, Cell{
									Index:  len(cells),
									Coords: cc,
									Cfg:    cfg,
									Key:    cfg.CanonicalKey(),
								})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// coordLabel renders a partial coordinate for error messages.
func coordLabel(coords map[string]string) string {
	for _, axis := range []string{AxisCPUs, AxisCoherence, AxisL1KB, AxisLineB} {
		if v, ok := coords[axis]; ok {
			return axis + "=" + v
		}
	}
	return coords[AxisWorkload]
}

// Plan is an expanded grid with its duplicate cells grouped: Unique
// holds each distinct configuration once (first-appearance order), and
// ByKey maps a canonical key back to every cell that shares it. Run
// executes Unique and fans results out, so overlapping cells cost one
// simulation.
type Plan struct {
	// Grid echoes the declaration.
	Grid Grid
	// Axes are the declared axis names in expansion order.
	Axes []string
	// Cells are the expanded grid points in expansion order.
	Cells []Cell
	// Unique are the distinct configurations, first-appearance order.
	Unique []core.RunConfig
	// UniqueKeys are the canonical keys of Unique, aligned by index.
	UniqueKeys []string
	// ByKey maps a canonical key to the indices of its cells.
	ByKey map[string][]int

	// cellUnique maps a cell index to its Unique index.
	cellUnique []int
}

// NewPlan expands the grid and groups duplicate cells by canonical
// key. All failures are *FieldError values.
func NewPlan(g Grid) (*Plan, error) {
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Grid:       g,
		Axes:       g.axes(),
		Cells:      cells,
		ByKey:      make(map[string][]int),
		cellUnique: make([]int, len(cells)),
	}
	uniqueIdx := make(map[string]int)
	for i, c := range cells {
		u, ok := uniqueIdx[c.Key]
		if !ok {
			u = len(p.Unique)
			uniqueIdx[c.Key] = u
			p.Unique = append(p.Unique, c.Cfg)
			p.UniqueKeys = append(p.UniqueKeys, c.Key)
		}
		p.cellUnique[i] = u
		p.ByKey[c.Key] = append(p.ByKey[c.Key], i)
	}
	return p, nil
}

// AxisValues returns the distinct values the cells take on one axis,
// in first-appearance order.
func (p *Plan) AxisValues(axis string) []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range p.Cells {
		if v, ok := c.Coords[axis]; ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
