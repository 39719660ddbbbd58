package sim

import "sync/atomic"

// Progress is a lock-free live progress feed for a running simulation.
// The simulator samples its counters into the attached Progress every
// few hundred references, so a concurrent reader (the ossimd streaming
// endpoint) can report refs processed, live OS miss counts and the
// advancing global clock without stopping or locking the simulation.
//
// Attach one with Simulator.SetProgress (or core.RunConfig.Progress,
// which also feeds it the generation counters and the projected trace
// total). Progress is runtime plumbing, not part of the simulated
// machine: it is excluded from canonical run keys.
type Progress struct {
	refs      atomic.Uint64
	genRefs   atomic.Uint64
	genStalls atomic.Uint64
	totalRefs atomic.Uint64
	osMisses  atomic.Uint64
	cycles    atomic.Uint64
	done      atomic.Bool
}

// ProgressSnapshot is one consistent-enough view of a live run. The
// fields are sampled individually, so a snapshot taken mid-run may mix
// adjacent sampling points; every field is monotonic, which is all a
// progress report needs.
type ProgressSnapshot struct {
	// Refs is the number of trace references processed so far.
	Refs uint64
	// GenRefs is the number of references generated so far. It covers
	// round 0 before the simulation starts and then advances round by
	// round as the producer runs ahead of (and overlapped with) the
	// simulation; a single-round run's GenRefs equals TotalRefs from
	// the start.
	GenRefs uint64
	// GenStalls counts how often the workload producer has blocked on a
	// full pipeline queue so far — live backpressure evidence that the
	// simulation, not generation, is the bottleneck. Always 0 for a
	// single-round run.
	GenStalls uint64
	// TotalRefs is the workload's projected total reference count (0
	// until round 0 has been generated, which projects it; exact for a
	// single-round run).
	TotalRefs uint64
	// OSReadMisses is the live OS primary-data-cache read-miss count.
	OSReadMisses uint64
	// Cycles is the advancing global clock (cycles of the processor
	// last stepped).
	Cycles uint64
	// Done reports that the simulation finished (the other fields are
	// final).
	Done bool
}

// GenSample publishes one generation-side observation from a streaming
// workload producer: references generated so far plus the projected
// trace total (0 while still unknown).
func (p *Progress) GenSample(generated, projectedTotal uint64) {
	p.genRefs.Store(generated)
	if projectedTotal > 0 {
		p.totalRefs.Store(projectedTotal)
	}
}

// GenStallSample publishes the streaming producer's cumulative stall
// count (times generation blocked on a full pipeline queue).
func (p *Progress) GenStallSample(stalls uint64) {
	p.genStalls.Store(stalls)
}

// Snapshot returns the current progress.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		Refs:         p.refs.Load(),
		GenRefs:      p.genRefs.Load(),
		GenStalls:    p.genStalls.Load(),
		TotalRefs:    p.totalRefs.Load(),
		OSReadMisses: p.osMisses.Load(),
		Cycles:       p.cycles.Load(),
		Done:         p.done.Load(),
	}
}

// Fraction returns completion in [0,1], by references processed.
func (s ProgressSnapshot) Fraction() float64 {
	if s.Done {
		return 1
	}
	if s.TotalRefs == 0 {
		return 0
	}
	f := float64(s.Refs) / float64(s.TotalRefs)
	if f > 1 {
		f = 1
	}
	return f
}

// sample publishes one observation from the simulation loop.
func (p *Progress) sample(refs, osMisses, cycles uint64) {
	p.refs.Store(refs)
	p.osMisses.Store(osMisses)
	p.cycles.Store(cycles)
}

// markDone publishes the final counters and flags completion.
func (p *Progress) markDone(refs, osMisses, cycles uint64) {
	p.sample(refs, osMisses, cycles)
	p.done.Store(true)
}
