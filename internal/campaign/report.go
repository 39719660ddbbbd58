package campaign

import (
	"fmt"
	"io"

	"oscachesim/internal/report"
	"oscachesim/internal/trace"
)

// TimeSegments is the Figure 3 stacked-bar decomposition, in the
// paper's order. Each name is a metric of Values.
var TimeSegments = []string{"exec", "imiss", "dwrite", "dread", "pref"}

// DiffMetrics are the default scalar metrics of the machine-readable
// axis diff.
var DiffMetrics = []string{"os_cycles", "os_read_misses", "d1_miss_rate", "bus_bytes"}

// Values projects one completed cell onto named scalar metrics: the
// Figure 3 OS-time decomposition in cycles (spin-wait reports under
// exec, as in the paper's accounting) plus the headline scalars used
// as diff metrics.
func Values(co CellOutcome) map[string]float64 {
	c := &co.Outcome.Counters
	ti := c.Time[trace.KindOS]
	return map[string]float64{
		"exec":           float64(ti.Exec + ti.Sync),
		"imiss":          float64(ti.IMiss),
		"dwrite":         float64(ti.DWrite),
		"dread":          float64(ti.DRead),
		"pref":           float64(ti.Pref),
		"os_cycles":      float64(c.OSTime()),
		"os_read_misses": float64(c.OSDReadMisses()),
		"d1_miss_rate":   c.D1MissRate(),
		"cycles":         float64(c.Cycles),
		"bus_bytes":      float64(c.Bus.TotalBytes()),
	}
}

// GridCells projects completed cells onto the report grid renderers.
func GridCells(cells []CellOutcome) []report.GridCell {
	out := make([]report.GridCell, len(cells))
	for i, c := range cells {
		out[i] = report.GridCell{Coords: c.Cell.Coords, Values: Values(c)}
	}
	return out
}

// Chart renders the campaign comparison in the Figure 3 layout: one
// chart block per combination of the non-row axes, one stacked bar per
// rowAxis value, segments the OS-time decomposition normalized to each
// block's first bar.
func Chart(title, rowAxis string, cells []report.GridCell) string {
	return report.GridChart(title, rowAxis, TimeSegments, "os_cycles", cells)
}

// WriteDiffText renders an axis diff as text: a header naming the
// compared values, then one aligned row per (coordinates, metric). It
// is the diff section of both the CLI's output and the daemon's
// format=text report.
func WriteDiffText(w io.Writer, axis, from, to string, rows []report.DiffRow) {
	fmt.Fprintf(w, "\ndiff %s: %s -> %s\n", axis, from, to)
	for _, row := range rows {
		fmt.Fprintf(w, "  %-40s %-16s %14.6g -> %-14.6g %+8.2f%%\n",
			report.CoordText(row.Coords, ""), row.Metric, row.From, row.To, row.DeltaPct)
	}
}
