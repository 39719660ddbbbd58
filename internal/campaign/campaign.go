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
	"maps"
	"slices"
	"strconv"

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

// point is a grid point under construction: the machine and the
// scenario the axes applied so far have set.
type point struct {
	machine sim.Params
	spec    *scenario.Spec
}

// dim is one declared axis between the workload axis (outermost) and
// the system axis (innermost): n values, and apply, which sets the
// i-th on a point, checks it and returns its coordinate label.
// Machine axes change the machine and precede the others, so the
// machine is validated before an axis that reads it.
type dim struct {
	name    string
	n       int
	machine bool
	apply   func(i int, pt *point) (string, error)
}

// dims returns the grid's declared axes between workload and system,
// in expansion order.
func (g *Grid) dims() []dim {
	table := []dim{
		{AxisCPUs, len(g.CPUs), true, func(i int, pt *point) (string, error) {
			n := g.CPUs[i]
			if n <= 0 {
				return "", fieldErr(fmt.Sprintf("cpus[%d]", i), n, "must be positive")
			}
			pt.machine.NumCPUs = n
			return strconv.Itoa(n), nil
		}},
		{AxisCoherence, len(g.Coherence), true, func(i int, pt *point) (string, error) {
			pt.machine.Coherence = g.Coherence[i]
			return g.Coherence[i].String(), nil
		}},
		{AxisL1KB, len(g.L1SizesKB), true, func(i int, pt *point) (string, error) {
			kb := g.L1SizesKB[i]
			if kb == 0 {
				return "", fieldErr(fmt.Sprintf("sizes_kb[%d]", i), kb, "must be positive")
			}
			pt.machine.L1D.Size = kb * 1024
			return strconv.FormatUint(kb, 10), nil
		}},
		{AxisLineB, len(g.LineSizes), true, func(i int, pt *point) (string, error) {
			line := g.LineSizes[i]
			if line == 0 {
				return "", fieldErr(fmt.Sprintf("line_sizes[%d]", i), line, "must be positive")
			}
			p := &pt.machine
			p.L1D.LineSize, p.L1I.LineSize = line, line
			if g.L2Line > 0 {
				p.L2.LineSize = g.L2Line
			}
			p.L2.LineSize = max(p.L2.LineSize, line)
			return strconv.FormatUint(line, 10), nil
		}},
		{AxisSharers, len(g.Sharers), false, func(i int, pt *point) (string, error) {
			d := g.Sharers[i]
			if d < 1 || d > pt.machine.NumCPUs {
				return "", fieldErr(fmt.Sprintf("sharers[%d]", i), d,
					"outside [1, %d] (widen the machine with cpus or machine.num_cpus)", pt.machine.NumCPUs)
			}
			pt.spec = pt.spec.WithSharingDegree(d)
			return strconv.Itoa(d), nil
		}},
	}
	return slices.DeleteFunc(table, func(d dim) bool { return d.n == 0 })
}

// axes returns the grid's declared axis names in expansion order.
func (g *Grid) axes() []string {
	out := []string{AxisWorkload}
	for _, d := range g.dims() {
		out = append(out, d.name)
	}
	return append(out, AxisSystem)
}

// expand validates the grid and produces its cells in deterministic
// order: workload outermost, then the declared axes of dims in table
// order, and system innermost. All failures are *FieldError values
// naming the offending field.
func (g *Grid) expand() ([]Cell, error) {
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
	dims := g.dims()
	// nm counts the machine axes, which lead the table.
	nm := 0
	for nm < len(dims) && dims[nm].machine {
		nm++
	}
	n := max(len(g.Workloads), 1) * len(g.Systems)
	for _, d := range dims {
		n *= d.n
	}
	maxCells := g.MaxCells
	if maxCells <= 0 {
		maxCells = DefaultMaxCells
	}
	if n > maxCells {
		return nil, fieldErr("grid", n, "expands to %d cells, exceeding the maximum %d", n, maxCells)
	}

	// The workload axis: profile names, or the one scenario.
	names := g.Workloads
	if g.Scenario != nil {
		names = []workload.Name{workload.SpecWorkloadName(g.Scenario)}
	}
	for i, name := range g.Workloads {
		if _, err := workload.ParseName(string(name)); err != nil {
			return nil, fieldErr(fmt.Sprintf("workloads[%d]", i), name, "%v", err)
		}
	}

	base := sim.DefaultParams()
	if g.Base != nil {
		base = *g.Base
	}
	// Without a machine axis or base override, cells keep a nil Machine
	// so their canonical keys match plain runs of the same
	// configuration (nil and the explicit default machine hash
	// differently).
	explicit := g.Base != nil || nm > 0

	cells := make([]Cell, 0, n)
	idx := make([]int, len(dims))
	for _, name := range names {
		// An odometer over the declared axes, the last turning fastest.
		for {
			pt := point{machine: base, spec: g.Scenario}
			coords := map[string]string{AxisWorkload: string(name)}
			applyDims := func(from, to int) error {
				for k := from; k < to; k++ {
					label, err := dims[k].apply(idx[k], &pt)
					if err != nil {
						return err
					}
					coords[dims[k].name] = label
				}
				return nil
			}
			if err := applyDims(0, nm); err != nil {
				return nil, err
			}
			if explicit {
				if err := pt.machine.Validate(); err != nil {
					at := string(name)
					if nm > 0 {
						at = dims[0].name + "=" + coords[dims[0].name]
					}
					return nil, fieldErr("machine", at, "%v", err)
				}
			}
			if err := applyDims(nm, len(dims)); err != nil {
				return nil, err
			}
			for _, sys := range g.Systems {
				cfg := core.RunConfig{System: sys, Scale: g.Scale, Seed: g.Seed, Stream: g.Stream, Workload: name}
				if explicit {
					machine := pt.machine
					cfg.Machine = &machine
				}
				if pt.spec != nil {
					cfg.Scenario = pt.spec
					cfg.Workload = workload.SpecWorkloadName(pt.spec)
				}
				cc := maps.Clone(coords)
				cc[AxisSystem] = sys.String()
				cells = append(cells, Cell{Index: len(cells), Coords: cc, Cfg: cfg, Key: cfg.CanonicalKey()})
			}
			k := len(idx) - 1
			for ; k >= 0; k-- {
				if idx[k]++; idx[k] < dims[k].n {
					break
				}
				idx[k] = 0
			}
			if k < 0 {
				break
			}
		}
	}
	return cells, nil
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
	cells, err := g.expand()
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

// Diff selects a machine-readable comparison: each pair of cells
// agreeing on every axis except Axis is compared between Axis=From and
// Axis=To (e.g. coherence, snoop, directory).
type Diff struct {
	Axis string `json:"axis"`
	From string `json:"from"`
	To   string `json:"to"`
}

// CheckSelection checks a report selection against the plan: row must
// be a declared axis, and diff, when non-nil, a declared axis and two
// values the cells take on it. A failure is a *FieldError named
// rowField, or diffField followed by "axis", "from" or "to".
func (p *Plan) CheckSelection(row string, diff *Diff, rowField, diffField string) error {
	if !slices.Contains(p.Axes, row) {
		return fieldErr(rowField, row, "not a declared axis (axes: %v)", p.Axes)
	}
	if diff == nil {
		return nil
	}
	if !slices.Contains(p.Axes, diff.Axis) {
		return fieldErr(diffField+"axis", diff.Axis, "not a declared axis (axes: %v)", p.Axes)
	}
	vals := p.AxisValues(diff.Axis)
	for _, end := range [][2]string{{"from", diff.From}, {"to", diff.To}} {
		if !slices.Contains(vals, end[1]) {
			return fieldErr(diffField+end[0], end[1], "not a value of axis %s (values: %v)", diff.Axis, vals)
		}
	}
	return nil
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
