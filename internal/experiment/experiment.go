// Package experiment regenerates every table and figure of the paper's
// evaluation. Each experiment maps to one function returning rendered
// text (the same rows/series the paper reports); a Runner shares
// simulation outcomes between experiments through a content-addressed
// result store (internal/store), so regenerating the whole evaluation
// costs one run per (workload, system) pair. A lookup goes store →
// singleflight → compute; the ossimd daemon builds its Runner over its
// own durable store and a compute hook that tries a peer before
// simulating locally.
//
// The paper's published values are embedded (paper.go) so every
// experiment can print a paper-vs-measured comparison; EXPERIMENTS.md
// is generated from exactly this output.
package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"oscachesim/internal/core"
	"oscachesim/internal/store"
	"oscachesim/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Scale is the number of generated scheduling rounds per workload
	// (0 = workload default). Larger is slower and smoother.
	Scale int
	// Seed drives all generation deterministically.
	Seed int64
	// Workers is the width of the worker pool (pool.go) that runs
	// independent simulations and experiment renders; 1 or less means
	// serial, so the zero Config is serial. Outcomes are
	// byte-identical at every width; only wall-clock changes.
	Workers int
}

// TestConfig returns the reduced, fully deterministic configuration the
// test suite standardizes on: a small fixed scale so the whole
// evaluation grid runs in seconds, a pinned seed, and serial execution
// so runs are reproducible independent of scheduling. The golden files
// under testdata/golden were rendered with exactly this configuration.
func TestConfig() Config { return Config{Scale: 5, Seed: 1, Workers: 1} }

// Runner shares simulation outcomes across experiments. Its memo is a
// *store.Store keyed by core.RunConfig.CanonicalKey — the same content
// address, and for the ossimd daemon the same store, that serves
// results over HTTP and across restarts — so a result is held once.
// Concurrent identical requests are deduplicated with singleflight
// semantics: when N callers ask for the same key at once, one runs the
// simulation and the rest wait for its result, so duplicate work is
// never done regardless of the caller mix (CLI warm-up goroutines,
// daemon workers).
type Runner struct {
	cfg     Config
	ctx     context.Context
	store   *store.Store
	compute func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error)

	mu        sync.Mutex
	inflight  map[string]*flight
	stats     CacheStats
	lastSched []WorkerStats
}

// flight is one in-progress simulation; joiners wait on done.
type flight struct {
	done chan struct{}
	o    *core.Outcome
	err  error
	// aborted marks a failure that happened while the starter's own
	// context was done: the starter's cancellation, not the
	// configuration's, so a joiner still wanting the outcome retries.
	aborted bool
}

// CacheStats counts the Runner's cache traffic.
type CacheStats struct {
	// Hits is the number of requests served from the store.
	Hits uint64
	// Joins is the number of requests that attached to an identical
	// simulation already in flight (deduplicated work).
	Joins uint64
	// Executions is the number of compute calls made.
	Executions uint64
}

// NewRunner returns a Runner for the given config.
func NewRunner(cfg Config) *Runner {
	return NewRunnerContext(context.Background(), cfg)
}

// NewRunnerContext returns a Runner whose simulations abort when ctx is
// canceled — the hook that makes Ctrl-C interrupt a sweep or ablation
// mid-simulation instead of running it to completion. Its memo is a
// private memory-only store and a miss runs core.Run.
func NewRunnerContext(ctx context.Context, cfg Config) *Runner {
	st, _ := store.Open("", nil) // memory-only never fails
	return NewStoreRunner(ctx, cfg, st, core.Run)
}

// NewStoreRunner returns a Runner whose memo is st and whose misses
// run compute. Runners sharing st share their results; compute lets a
// caller (the ossimd daemon) extend the dedup chain beneath the store
// and singleflight — a peer node, then a local simulation — without
// touching the fan-out or caching logic.
func NewStoreRunner(ctx context.Context, cfg Config, st *store.Store, compute func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error)) *Runner {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Runner{
		cfg:      cfg,
		ctx:      ctx,
		store:    st,
		compute:  compute,
		inflight: make(map[string]*flight),
	}
}

// Stats returns a snapshot of the cache counters.
func (r *Runner) Stats() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// configFor is the base configuration of one (workload, system) run
// under the Runner's scale and seed.
func (r *Runner) configFor(w workload.Name, sys core.System) core.RunConfig {
	return core.RunConfig{Workload: w, System: sys, Scale: r.cfg.Scale, Seed: r.cfg.Seed}
}

// Outcome returns the (cached) outcome of a workload under a system on
// the default machine.
func (r *Runner) Outcome(w workload.Name, sys core.System) (*core.Outcome, error) {
	return r.OutcomeConfig(r.ctx, r.configFor(w, sys))
}

// OutcomeConfig returns the (cached) outcome of an arbitrary
// configuration: from the store, else from an identical simulation in
// flight, else from a compute call whose result is stored. ctx bounds
// this caller's wait and the simulation itself when this caller starts
// it; the Runner's own context, if canceled, stops everything. A joiner
// whose starter was canceled while the joiner's own ctx is live does
// not inherit that cancellation: it retries, starting the simulation
// itself if no one else has.
//
// Configurations carrying a Monitor bypass the store and singleflight:
// an attached observer must see a real run.
func (r *Runner) OutcomeConfig(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
	if cfg.Monitor != nil {
		return r.compute(ctx, cfg)
	}
	key := cfg.CanonicalKey()
	r.mu.Lock()
	for {
		// The store is checked under r.mu: a flight stores its record
		// before it leaves inflight, so this caller sees one or the other.
		if rec := r.store.Get(key); rec != nil {
			r.stats.Hits++
			r.mu.Unlock()
			return rec.Outcome()
		}
		f, ok := r.inflight[key]
		if !ok {
			break
		}
		r.stats.Joins++
		r.mu.Unlock()
		select {
		case <-f.done:
			if !f.aborted || ctx.Err() != nil {
				return f.o, f.err
			}
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		r.mu.Lock()
	}
	f := &flight{done: make(chan struct{})}
	r.inflight[key] = f
	r.stats.Executions++
	r.mu.Unlock()

	f.o, f.err = r.compute(ctx, cfg)
	f.aborted = f.err != nil && ctx.Err() != nil
	if f.err == nil {
		// A failed append still indexes the record (and logs it).
		_ = r.store.Put(store.RecordOf(key, f.o))
	}
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
	close(f.done)
	return f.o, f.err
}

// Experiment names one regenerable table or figure.
type Experiment struct {
	// ID is the short name ("table1", "figure3", "update-traffic").
	ID string
	// Title matches the paper's caption.
	Title string
	// Render runs the experiment and returns its text.
	Render func(*Runner) (string, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: Characteristics of the workloads studied", Table1},
		{"table2", "Table 2: Breakdown of operating system data misses", Table2},
		{"table3", "Table 3: Characteristics of the block operations", Table3},
		{"table4", "Table 4: Characteristics of copies of blocks smaller than a page", Table4},
		{"table5", "Table 5: Breakdown of coherence misses in the operating system", Table5},
		{"figure1", "Figure 1: Components of the overhead of block operations", Figure1},
		{"figure2", "Figure 2: Normalized OS read misses under block-operation support", Figure2},
		{"figure3", "Figure 3: Normalized OS execution time under different levels of support", Figure3},
		{"figure4", "Figure 4: Normalized OS read misses under coherence optimizations", Figure4},
		{"figure5", "Figure 5: Normalized OS read misses with hot-spot prefetching", Figure5},
		{"figure6", "Figure 6: Normalized OS execution time vs primary cache size", Figure6},
		{"figure7", "Figure 7: Normalized OS execution time vs primary cache line size", Figure7},
		{"update-traffic", "Section 5.2: bus traffic of selective update vs invalidate and pure update", UpdateTraffic},
	}
}

// Find returns the paper experiment or ablation study with the given
// id; the two registries' ids are disjoint.
func Find(id string) (Experiment, error) {
	var ids []string
	for _, e := range append(All(), Ablations()...) {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiment: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}
