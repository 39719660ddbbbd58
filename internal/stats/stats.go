// Package stats defines the measurement model of the study: per-mode
// execution-time breakdowns (the stacked bars of Figure 3), the
// three-way read-miss taxonomy of Table 2 (block operation / coherence
// / other), the coherence sub-taxonomy of Table 5, the block-operation
// characteristics of Table 3 and Figure 1, and formatting helpers the
// command-line tools and benchmarks share.
package stats

import (
	"fmt"
	"strings"

	"oscachesim/internal/bus"
	"oscachesim/internal/trace"
)

// Mode indexes the three execution modes (user/OS/idle) in per-mode
// counters. It deliberately matches trace.Kind's values.
const NumModes = 3

// MissClass is the paper's top-level read-miss taxonomy (Table 2).
type MissClass uint8

const (
	// MissBlock: the miss happened inside a block operation.
	MissBlock MissClass = iota
	// MissCoherence: the line was invalidated by a remote write since
	// this processor last held it.
	MissCoherence
	// MissOther: cold, capacity and conflict misses.
	MissOther
	NumMissClasses
)

// String names the miss class.
func (m MissClass) String() string {
	switch m {
	case MissBlock:
		return "block"
	case MissCoherence:
		return "coherence"
	case MissOther:
		return "other"
	default:
		return fmt.Sprintf("MissClass(%d)", uint8(m))
	}
}

// CohClass is the coherence-miss sub-taxonomy (Table 5).
type CohClass uint8

const (
	// CohBarrier: invalidated by a barrier-variable write.
	CohBarrier CohClass = iota
	// CohInfreqComm: invalidated by an infrequently-communicated
	// counter update.
	CohInfreqComm
	// CohFreqShared: invalidated by a frequently-shared variable
	// write.
	CohFreqShared
	// CohLock: invalidated by a lock operation.
	CohLock
	// CohOther: everything else, including false sharing.
	CohOther
	NumCohClasses
)

// String names the coherence sub-class.
func (c CohClass) String() string {
	names := [...]string{"barriers", "infreq-comm", "freq-shared", "locks", "other"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("CohClass(%d)", uint8(c))
}

// CohClassOf maps the data class of the invalidating write to the
// Table 5 category.
func CohClassOf(dc trace.DataClass) CohClass {
	switch dc {
	case trace.ClassBarrier:
		return CohBarrier
	case trace.ClassCounter:
		return CohInfreqComm
	case trace.ClassFreqShared:
		return CohFreqShared
	case trace.ClassLock:
		return CohLock
	default:
		return CohOther
	}
}

// TimeBreakdown decomposes a processor's cycles the way Figure 3 does.
type TimeBreakdown struct {
	// Exec is instruction-execution cycles (one per instruction).
	Exec uint64
	// IMiss is instruction-fetch stall.
	IMiss uint64
	// DRead is data-read miss stall not overlapped by prefetches
	// (includes the stall while a DMA block transfer runs, as the
	// paper's accounting does).
	DRead uint64
	// Pref is residual stall on reads partially overlapped by
	// prefetches.
	Pref uint64
	// DWrite is write-buffer overflow stall.
	DWrite uint64
	// Sync is lock-spin and barrier-wait time.
	Sync uint64
}

// Total sums all components.
func (t TimeBreakdown) Total() uint64 {
	return t.Exec + t.IMiss + t.DRead + t.Pref + t.DWrite + t.Sync
}

// Add accumulates o into t.
func (t *TimeBreakdown) Add(o TimeBreakdown) {
	t.Exec += o.Exec
	t.IMiss += o.IMiss
	t.DRead += o.DRead
	t.Pref += o.Pref
	t.DWrite += o.DWrite
	t.Sync += o.Sync
}

// BlockOverhead decomposes the cost of block operations the way
// Figure 1 does.
type BlockOverhead struct {
	// ReadStall is stall on source-block read misses.
	ReadStall uint64
	// WriteStall is write-buffer overflow stall while writing the
	// destination block.
	WriteStall uint64
	// DisplStall is stall on later misses to data the block operation
	// displaced from the caches.
	DisplStall uint64
	// InstrExec is instruction-execution time of the block-operation
	// loops.
	InstrExec uint64
}

// Total sums the components.
func (b BlockOverhead) Total() uint64 {
	return b.ReadStall + b.WriteStall + b.DisplStall + b.InstrExec
}

// BlockOpStats aggregates the block-operation characteristics of
// Table 3 and the reuse/displacement taxonomy of Section 4.1.3.
type BlockOpStats struct {
	// Ops is the number of block operations observed.
	Ops uint64
	// Copies is how many of them were copies (vs zeros).
	Copies uint64
	// SrcLinesTotal / SrcLinesCached: distinct L1 source lines and how
	// many of them were already cached when first touched (row 1).
	SrcLinesTotal  uint64
	SrcLinesCached uint64
	// DstLinesTotal / DstLinesL2Owned / DstLinesL2Shared: distinct L2
	// destination lines; how many were already in the writer's L2
	// dirty-or-exclusive (row 2) or shared (row 3) at first touch.
	DstLinesTotal    uint64
	DstLinesL2Owned  uint64
	DstLinesL2Shared uint64
	// Size histogram (rows 4-6): page-sized, mid (1K..<4K), small (<1K).
	SizePage  uint64
	SizeMid   uint64
	SizeSmall uint64
	// Displacement misses (rows 7-8) and bypass reuses (rows 9-10),
	// inside vs outside a block operation in progress.
	InsideDispl  uint64
	OutsideDispl uint64
	InsideReuse  uint64
	OutsideReuse uint64
}

// Counters is the full measurement record of one simulation run.
type Counters struct {
	// Time per mode (user/OS/idle), per component.
	Time [NumModes]TimeBreakdown
	// Instrs, DReads, DWrites per mode.
	Instrs  [NumModes]uint64
	DReads  [NumModes]uint64
	DWrites [NumModes]uint64
	// DReadMisses is primary-data-cache read misses per mode. The
	// paper's miss rates and miss counts are read-only (Section 3).
	DReadMisses [NumModes]uint64
	// Prefetches issued and how many were late (partial overlap).
	Prefetches     uint64
	LatePrefetches uint64
	// OSMissBy classifies OS read misses per Table 2.
	OSMissBy [NumMissClasses]uint64
	// OSCohBy sub-classifies OS coherence misses per Table 5.
	OSCohBy [NumCohClasses]uint64
	// OSHotSpotMisses is OS read misses at the Section 6 hot spots.
	OSHotSpotMisses uint64
	// OSSpotMisses breaks the hot-spot misses down by spot identity
	// (indexed by the trace Spot id; see kernel.SpotName).
	OSSpotMisses [32]uint64
	// Block aggregates block-operation behaviour.
	Block BlockOpStats
	// BlockOverhead decomposes block-operation cost (Figure 1).
	BlockOverhead BlockOverhead
	// Bus is the bus traffic record.
	Bus bus.Stats
	// Cycles is the final global cycle count (max over CPUs).
	Cycles uint64
}

// TotalTime sums cycles across modes (all CPUs together).
func (c *Counters) TotalTime() uint64 {
	var n uint64
	for m := 0; m < NumModes; m++ {
		n += c.Time[m].Total()
	}
	return n
}

// OSTime returns total OS cycles.
func (c *Counters) OSTime() uint64 { return c.Time[trace.KindOS].Total() }

// TotalDReads sums data reads across modes.
func (c *Counters) TotalDReads() uint64 {
	return c.DReads[0] + c.DReads[1] + c.DReads[2]
}

// TotalDReadMisses sums primary-cache read misses across modes.
func (c *Counters) TotalDReadMisses() uint64 {
	return c.DReadMisses[0] + c.DReadMisses[1] + c.DReadMisses[2]
}

// OSDReadMisses returns OS read misses.
func (c *Counters) OSDReadMisses() uint64 { return c.DReadMisses[trace.KindOS] }

// D1MissRate returns the primary-data-cache read miss rate across all
// modes.
func (c *Counters) D1MissRate() float64 {
	if c.TotalDReads() == 0 {
		return 0
	}
	return float64(c.TotalDReadMisses()) / float64(c.TotalDReads())
}

// Pct formats a ratio as a percentage with one decimal.
func Pct(num, den uint64) string {
	if den == 0 {
		return "  -  "
	}
	return fmt.Sprintf("%5.1f", 100*float64(num)/float64(den))
}

// Ratio returns num/den, or 0 when den is 0.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Table renders rows of labeled values as fixed-width text, in the
// visual style of the paper's tables.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// AddRow appends a row; the first cell is the row label.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
