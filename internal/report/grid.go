package report

// This file generalizes the paper's figure renderers to arbitrary
// parameter grids: a campaign cell projected to named scalar values at
// a coordinate can be drawn as grouped stacked bars (GridChart, the
// Figure 3 layout at any machine geometry) or compared pairwise along
// one axis (DiffCells, the benchdiff-style machine-readable report).

import (
	"fmt"
	"sort"
	"strings"
)

// GridCell is one completed grid cell: its coordinates on the declared
// axes and the scalar values measured there.
type GridCell struct {
	// Coords locates the cell, e.g. {"workload": "TRFD_4", "cpus":
	// "16", "coherence": "directory", "system": "BCPref"}.
	Coords map[string]string `json:"coords"`
	// Values are the cell's measurements by metric name.
	Values map[string]float64 `json:"values"`
}

// CoordText canonically renders a cell's coordinates with the drop
// axis removed (none when drop is ""): "axis=value" pairs, axis-sorted,
// space-joined. Cells with equal texts differ only on the dropped axis.
func CoordText(coords map[string]string, drop string) string {
	axes := make([]string, 0, len(coords))
	for a := range coords {
		if a != drop {
			axes = append(axes, a)
		}
	}
	sort.Strings(axes)
	parts := make([]string, len(axes))
	for i, a := range axes {
		parts[i] = a + "=" + coords[a]
	}
	return strings.Join(parts, " ")
}

// GridChart renders a grid as grouped stacked bars: cells are grouped
// by every coordinate except rowAxis (one chart block per group, in
// first-appearance order, titled with the fixed coordinates), with one
// bar per rowAxis value. Segment values stack in the given order and
// are normalized to the group's first bar's norm value — the way the
// paper normalizes each figure to Base.
func GridChart(title, rowAxis string, segments []string, norm string, cells []GridCell) string {
	type group struct {
		title string
		cells []GridCell
	}
	var groups []*group
	index := map[string]*group{}
	for _, c := range cells {
		key := CoordText(c.Coords, rowAxis)
		g, ok := index[key]
		if !ok {
			g = &group{title: key}
			index[key] = g
			groups = append(groups, g)
		}
		g.cells = append(g.cells, c)
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for _, g := range groups {
		chart := &Chart{Title: fmt.Sprintf("  %s:", g.title), Width: 44}
		denom := g.cells[0].Values[norm]
		if denom == 0 {
			denom = 1
		}
		for _, c := range g.cells {
			segs := make([]Segment, len(segments))
			for i, name := range segments {
				segs[i] = Segment{Label: name, Value: c.Values[name] / denom}
			}
			chart.Add(Bar{
				Name:       c.Coords[rowAxis],
				Segments:   segs,
				Annotation: fmt.Sprintf("total=%.2f", c.Values[norm]/denom),
			})
		}
		b.WriteString(chart.String())
	}
	return b.String()
}

// DiffRow is one benchdiff-style comparison: one metric at one grid
// coordinate, evaluated at two values of the diffed axis.
type DiffRow struct {
	// Coords are the coordinates the two cells share (the diffed axis
	// is removed).
	Coords map[string]string `json:"coords"`
	Metric string            `json:"metric"`
	From   float64           `json:"from"`
	To     float64           `json:"to"`
	// DeltaPct is (to-from)/from in percent; 0 when from is 0.
	DeltaPct float64 `json:"delta_pct"`
}

// DiffCells pairs cells that agree on every coordinate except axis and
// reports, for each listed metric, the delta between the cell at
// axis=from and the cell at axis=to. Coordinates present on only one
// side are skipped. Rows keep the cells' first-appearance order.
func DiffCells(cells []GridCell, axis, from, to string, metrics []string) []DiffRow {
	type pair struct {
		coords   map[string]string
		from, to *GridCell
	}
	var order []string
	pairs := map[string]*pair{}
	for i := range cells {
		c := &cells[i]
		v, ok := c.Coords[axis]
		if !ok || (v != from && v != to) {
			continue
		}
		key := CoordText(c.Coords, axis)
		p, seen := pairs[key]
		if !seen {
			coords := make(map[string]string, len(c.Coords)-1)
			for a, val := range c.Coords {
				if a != axis {
					coords[a] = val
				}
			}
			p = &pair{coords: coords}
			pairs[key] = p
			order = append(order, key)
		}
		if v == from {
			p.from = c
		} else {
			p.to = c
		}
	}
	var rows []DiffRow
	for _, key := range order {
		p := pairs[key]
		if p.from == nil || p.to == nil {
			continue
		}
		for _, m := range metrics {
			f, t := p.from.Values[m], p.to.Values[m]
			var pct float64
			if f != 0 {
				pct = (t - f) / f * 100
			}
			rows = append(rows, DiffRow{Coords: p.coords, Metric: m, From: f, To: t, DeltaPct: pct})
		}
	}
	return rows
}
