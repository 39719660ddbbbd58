package check

import (
	"context"
	"fmt"

	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// VerifyCounters cross-checks the simulator's measurement record
// against the oracle's independent event tallies: reference and
// operation counts per mode, read-miss counts per mode, and the
// Table 2 / Table 5 classification histograms.
func (k *Checker) VerifyCounters(c stats.Counters, refs uint64) error {
	if k.refs != refs {
		return fmt.Errorf("check: oracle saw %d references, simulator reports %d", k.refs, refs)
	}
	for m := 0; m < stats.NumModes; m++ {
		if k.instrs[m] != c.Instrs[m] {
			return fmt.Errorf("check: mode %d instruction count: oracle %d, counters %d", m, k.instrs[m], c.Instrs[m])
		}
		if k.reads[m] != c.DReads[m] {
			return fmt.Errorf("check: mode %d read count: oracle %d, counters %d", m, k.reads[m], c.DReads[m])
		}
		if k.writes[m] != c.DWrites[m] {
			return fmt.Errorf("check: mode %d write count: oracle %d, counters %d", m, k.writes[m], c.DWrites[m])
		}
		if k.misses[m] != c.DReadMisses[m] {
			return fmt.Errorf("check: mode %d read misses: oracle %d, counters %d", m, k.misses[m], c.DReadMisses[m])
		}
	}
	for i := stats.MissClass(0); i < stats.NumMissClasses; i++ {
		if k.osMissBy[i] != c.OSMissBy[i] {
			return fmt.Errorf("check: OS %s misses: oracle %d, counters %d", i, k.osMissBy[i], c.OSMissBy[i])
		}
	}
	for i := stats.CohClass(0); i < stats.NumCohClasses; i++ {
		if k.osCohBy[i] != c.OSCohBy[i] {
			return fmt.Errorf("check: OS coherence misses via %s: oracle %d, counters %d", i, k.osCohBy[i], c.OSCohBy[i])
		}
	}
	return nil
}

// VerifyOutcome checks the conservation laws every run must satisfy,
// independent of any attached oracle:
//
//   - the Table 2 classes sum to the OS read-miss count and the
//     Table 5 classes sum to the coherence-miss count;
//   - misses never exceed references (hits = reads - misses >= 0);
//   - the per-mode time breakdowns sum exactly to the processors'
//     local clocks, and the reported cycle count is their maximum;
//   - derived block-operation and hot-spot tallies stay within their
//     parent counts.
func VerifyOutcome(o *core.Outcome) error {
	c := &o.Counters
	var missSum uint64
	for _, n := range c.OSMissBy {
		missSum += n
	}
	if missSum != c.DReadMisses[trace.KindOS] {
		return fmt.Errorf("check: OS miss classes sum to %d, OS read misses %d",
			missSum, c.DReadMisses[trace.KindOS])
	}
	var cohSum uint64
	for _, n := range c.OSCohBy {
		cohSum += n
	}
	if cohSum != c.OSMissBy[stats.MissCoherence] {
		return fmt.Errorf("check: coherence sub-classes sum to %d, coherence misses %d",
			cohSum, c.OSMissBy[stats.MissCoherence])
	}
	for m := 0; m < stats.NumModes; m++ {
		if c.DReadMisses[m] > c.DReads[m] {
			return fmt.Errorf("check: mode %d has %d read misses for %d reads",
				m, c.DReadMisses[m], c.DReads[m])
		}
	}
	if len(o.CPUTime) > 0 {
		var sum, maxT uint64
		for _, t := range o.CPUTime {
			sum += t
			if t > maxT {
				maxT = t
			}
		}
		if got := c.TotalTime(); got != sum {
			return fmt.Errorf("check: time breakdowns sum to %d cycles, CPU clocks to %d", got, sum)
		}
		if c.Cycles != maxT {
			return fmt.Errorf("check: reported %d cycles, max CPU clock %d", c.Cycles, maxT)
		}
		for i, t := range o.CPUTime {
			if t > c.Cycles {
				return fmt.Errorf("check: cpu%d clock %d exceeds total cycles %d", i, t, c.Cycles)
			}
		}
	}
	b := c.Block
	if b.SrcLinesCached > b.SrcLinesTotal {
		return fmt.Errorf("check: %d cached source lines of %d total", b.SrcLinesCached, b.SrcLinesTotal)
	}
	if b.DstLinesL2Owned+b.DstLinesL2Shared > b.DstLinesTotal {
		return fmt.Errorf("check: %d classified destination lines of %d total",
			b.DstLinesL2Owned+b.DstLinesL2Shared, b.DstLinesTotal)
	}
	if c.OSHotSpotMisses > c.DReadMisses[trace.KindOS] {
		return fmt.Errorf("check: %d hot-spot misses of %d OS read misses",
			c.OSHotSpotMisses, c.DReadMisses[trace.KindOS])
	}
	var spotSum uint64
	for _, n := range c.OSSpotMisses {
		spotSum += n
	}
	if spotSum > c.OSHotSpotMisses {
		return fmt.Errorf("check: per-spot misses sum to %d of %d hot-spot misses",
			spotSum, c.OSHotSpotMisses)
	}
	if c.LatePrefetches > c.Prefetches {
		return fmt.Errorf("check: %d late prefetches of %d issued", c.LatePrefetches, c.Prefetches)
	}
	return nil
}

// Differential runs one configuration with the oracle attached and
// returns the outcome, failing if the oracle diverged, the counters
// disagree with the oracle's tallies, or a conservation law broke.
func Differential(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
	var k *Checker
	cfg.Monitor = func(s *sim.Simulator) { k = Attach(s) }
	o, err := core.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := k.Err(); err != nil {
		return o, err
	}
	if err := k.VerifyCounters(o.Counters, o.Refs); err != nil {
		return o, err
	}
	if err := VerifyOutcome(o); err != nil {
		return o, err
	}
	return o, nil
}

// Monotonicity checks the cache-geometry law: on the same trace, a
// larger primary data cache must not increase the data-read miss
// count. sizes must be ascending. slackPct tolerates the small
// non-monotonicities a direct-mapped cache can exhibit when the set
// mapping shifts (0 demands strict monotonicity).
func Monotonicity(ctx context.Context, w workload.Name, sys core.System, scale int, seed int64, sizes []uint64, slackPct float64) error {
	prev := uint64(0)
	for i, size := range sizes {
		p := sim.DefaultParams()
		p.L1D.Size = size
		o, err := core.Run(ctx, core.RunConfig{
			Workload: w, System: sys, Scale: scale, Seed: seed, Machine: &p,
		})
		if err != nil {
			return err
		}
		misses := o.Counters.TotalDReadMisses()
		if i > 0 {
			limit := prev + uint64(float64(prev)*slackPct/100)
			if misses > limit {
				return fmt.Errorf("check: %s/%s: growing L1D %d -> %d bytes raised read misses %d -> %d (slack %.1f%%)",
					w, sys, sizes[i-1], size, prev, misses, slackPct)
			}
		}
		prev = misses
	}
	return nil
}
