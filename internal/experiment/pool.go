package experiment

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oscachesim/internal/core"
)

// This file is the Runner's worker pool: it fans independent jobs —
// whole simulations, or whole experiment renders — across workers
// while keeping results byte-identical to a serial run. Determinism
// holds because each configuration is itself deterministic (same
// canonical key, same outcome) and results are assembled in input
// order — the schedule changes only *when* a job runs, never what it
// computes. The Runner's content-addressed cache deduplicates
// configurations that appear more than once regardless of which
// worker gets them first.

// WorkerStats is one pool worker's accounting for the last RunConfigs
// call: where its wall clock went (running simulations vs idle — out
// of work, or waiting out cancellation). The same busy/idle
// attribution the paper applies to processor stall time, applied to
// the sweep scheduler itself.
type WorkerStats struct {
	// Busy is the wall time spent inside simulation runs.
	Busy time.Duration
	// Idle is the rest of the worker's lifetime: the tail after its
	// work ran out.
	Idle time.Duration
	// Runs is the number of configurations this worker executed.
	Runs int
}

// LastSchedulerStats returns the per-worker accounting of the most
// recent RunConfigs call (one entry per worker; a serial run has one).
// Nil until RunConfigs has completed at least once.
func (r *Runner) LastSchedulerStats() []WorkerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.lastSched)
}

// forEach runs job(ctx, i) for every i in [0, n) on up to w workers
// that share one atomic next index. Worker 0 runs on the caller's
// goroutine, so w ≤ 1 is a plain serial loop through the same code.
// Jobs start in index order. The first error cancels ctx for the rest
// and is returned; if the caller's ctx dies first, its cause is. The
// returned stats hold one entry per worker.
func forEach(ctx context.Context, n, w int, job func(ctx context.Context, i int) error) ([]WorkerStats, error) {
	w = max(1, min(w, n))
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var (
		next     atomic.Int64
		done     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	// Each worker writes only its own stats slot, so the accounting adds
	// no synchronization to the scheduling loop.
	sched := make([]WorkerStats, w)
	work := func(ws *WorkerStats) {
		start := time.Now()
		defer func() { ws.Idle = time.Since(start) - ws.Busy }()
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			t0 := time.Now()
			err := job(ctx, i)
			ws.Busy += time.Since(t0)
			if err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel(err)
				})
				return
			}
			ws.Runs++
			done.Add(1)
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(&sched[k])
		}()
	}
	work(&sched[0])
	wg.Wait()
	if firstErr != nil {
		return sched, firstErr
	}
	if int(done.Load()) < n {
		// The workers drained out because the caller's context died,
		// not because the work finished.
		return sched, context.Cause(ctx)
	}
	return sched, nil
}

// RunConfigs executes every configuration and returns outcomes in
// input order. With Workers > 1 the work fans across that many
// workers; duplicated configurations are computed once via the Runner
// cache.
//
// The first error cancels the remaining work and is returned; partial
// outcomes are discarded.
func (r *Runner) RunConfigs(ctx context.Context, cfgs []core.RunConfig) ([]*core.Outcome, error) {
	return r.RunConfigsEach(ctx, cfgs, nil)
}

// RunConfigsEach is RunConfigs with a per-completion hook: each, when
// non-nil, is called once per configuration as soon as its outcome is
// available, with the input index and the outcome. With Workers > 1
// the hook fires on worker goroutines, possibly concurrently — the
// caller synchronizes. Callers that need partial results on
// cancellation (a campaign reporting the cells that finished) collect
// them here; the returned slice is still all-or-nothing.
func (r *Runner) RunConfigsEach(ctx context.Context, cfgs []core.RunConfig, each func(idx int, o *core.Outcome)) ([]*core.Outcome, error) {
	outs := make([]*core.Outcome, len(cfgs))
	sched, err := forEach(ctx, len(cfgs), r.cfg.Workers, func(ctx context.Context, i int) error {
		o, err := r.OutcomeConfig(ctx, cfgs[i])
		if err != nil {
			return err
		}
		outs[i] = o
		if each != nil {
			each(i, o)
		}
		return nil
	})
	r.mu.Lock()
	r.lastSched = sched
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// RenderEach renders every experiment through the same pool, at most
// Workers at a time, so each render's simulations share the Runner
// cache and the concurrent simulations stay within the pool's bound.
// each is called once per experiment with its input index and text as
// soon as it is rendered; with Workers > 1 it fires on worker
// goroutines, possibly concurrently — the caller synchronizes. The
// first error stops experiments not yet started and is returned.
func (r *Runner) RenderEach(exps []Experiment, each func(idx int, out string)) error {
	_, err := forEach(r.ctx, len(exps), r.cfg.Workers, func(_ context.Context, i int) error {
		out, err := exps[i].Render(r)
		if err != nil {
			return err
		}
		each(i, out)
		return nil
	})
	return err
}
