package campaign

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"oscachesim/internal/core"
)

// ConfigRunner is the fan-out surface Run drives — the per-completion
// entry point of the experiment runner's worker pool.
// *experiment.Runner satisfies it; tests substitute deterministic
// stubs.
type ConfigRunner interface {
	RunConfigsEach(ctx context.Context, cfgs []core.RunConfig, each func(idx int, o *core.Outcome)) ([]*core.Outcome, error)
}

// Progress aggregates a running campaign: cells and unique
// configurations completed, the summed stage timings of every actual
// execution, and an ETA extrapolated from the unique-work completion
// rate. All counters are written by runner workers and read locklessly
// by the stream handler via Snapshot.
type Progress struct {
	cellsDone   atomic.Int64
	cellsTotal  atomic.Int64
	uniqueDone  atomic.Int64
	uniqueTotal atomic.Int64
	startNanos  atomic.Int64

	mu     sync.Mutex
	stages core.StageTimings
}

// start arms the aggregate at the beginning of a run.
func (p *Progress) start(cells, unique int) {
	p.cellsTotal.Store(int64(cells))
	p.uniqueTotal.Store(int64(unique))
	p.cellsDone.Store(0)
	p.uniqueDone.Store(0)
	p.startNanos.Store(time.Now().UnixNano())
}

// Snapshot is one consistent-enough reading of a campaign's progress.
type Snapshot struct {
	CellsDone   int
	CellsTotal  int
	UniqueDone  int
	UniqueTotal int
	// Stages sums the wall clock of every execution so far.
	Stages core.StageTimings
	// Elapsed is the wall time since Run started (0 before).
	Elapsed time.Duration
	// ETA extrapolates the remaining unique work from the completion
	// rate so far; 0 until the first configuration completes.
	ETA time.Duration
}

// Snapshot samples the aggregate. Safe on a nil Progress.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	s := Snapshot{
		CellsDone:   int(p.cellsDone.Load()),
		CellsTotal:  int(p.cellsTotal.Load()),
		UniqueDone:  int(p.uniqueDone.Load()),
		UniqueTotal: int(p.uniqueTotal.Load()),
	}
	p.mu.Lock()
	s.Stages = p.stages
	p.mu.Unlock()
	if t0 := p.startNanos.Load(); t0 > 0 {
		s.Elapsed = time.Duration(time.Now().UnixNano() - t0)
	}
	if s.UniqueDone > 0 && s.UniqueDone < s.UniqueTotal {
		s.ETA = time.Duration(int64(s.Elapsed) / int64(s.UniqueDone) * int64(s.UniqueTotal-s.UniqueDone))
	}
	return s
}

// CellOutcome is one completed cell: the grid point and its outcome.
type CellOutcome struct {
	Cell    Cell
	Outcome *core.Outcome
}

// Run executes a plan: the unique configurations fan across the
// runner, each completed configuration immediately credits every cell
// sharing its canonical key, and the result is one outcome per cell in
// grid order. prog may be nil.
//
// On error (cancellation included) the returned slice holds only the
// cells whose configuration completed — the partial grid, still in
// cell order — alongside the error.
func Run(ctx context.Context, r ConfigRunner, p *Plan, prog *Progress) ([]CellOutcome, error) {
	if prog == nil {
		prog = &Progress{}
	}
	prog.start(len(p.Cells), len(p.Unique))
	completed := make(map[int]*core.Outcome, len(p.Unique))
	// Each completion records its outcome and adds the execution's
	// stage timings to the campaign sums. An outcome served from the
	// store carries none, so only simulations that ran are summed.
	each := func(idx int, o *core.Outcome) {
		prog.mu.Lock()
		completed[idx] = o
		prog.stages.Build += o.Stages.Build
		prog.stages.Stream += o.Stages.Stream
		prog.stages.Simulate += o.Stages.Simulate
		prog.mu.Unlock()
		prog.uniqueDone.Add(1)
		prog.cellsDone.Add(int64(len(p.ByKey[p.UniqueKeys[idx]])))
	}
	outs, err := r.RunConfigsEach(ctx, p.Unique, each)
	if err != nil {
		prog.mu.Lock()
		defer prog.mu.Unlock()
		var partial []CellOutcome
		for i, c := range p.Cells {
			if o, ok := completed[p.cellUnique[i]]; ok {
				partial = append(partial, CellOutcome{Cell: c, Outcome: o})
			}
		}
		return partial, err
	}
	res := make([]CellOutcome, len(p.Cells))
	for i, c := range p.Cells {
		res[i] = CellOutcome{Cell: c, Outcome: outs[p.cellUnique[i]]}
	}
	return res, nil
}
