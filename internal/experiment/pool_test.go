package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/store"
	"oscachesim/internal/workload"
)

// hookRunner returns a Runner over a fresh memory-only store whose
// misses run compute instead of core.Run.
func hookRunner(cfg Config, compute func(context.Context, core.RunConfig) (*core.Outcome, error)) *Runner {
	st, _ := store.Open("", nil)
	return NewStoreRunner(context.Background(), cfg, st, compute)
}

// concurrencyProbe is a compute hook that records the peak number of
// simulations running at once.
type concurrencyProbe struct {
	running, peak atomic.Int32
}

func (p *concurrencyProbe) compute(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
	n := p.running.Add(1)
	defer p.running.Add(-1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	return &core.Outcome{Config: cfg}, nil
}

// distinctConfigs returns n configurations with distinct canonical
// keys, so none dedupes onto another.
func distinctConfigs(n int) []core.RunConfig {
	cfgs := make([]core.RunConfig, n)
	for i := range cfgs {
		cfgs[i] = core.RunConfig{Workload: workload.Shell, System: core.Base, Scale: 1, Seed: int64(i + 1)}
	}
	return cfgs
}

// TestPoolRespectsWorkerBound pins the pool's width: RunConfigsEach
// never has more than Workers simulations in flight, and the zero
// Config — the server's runner — runs strictly serially. Renders go
// through the same pool, so a batch of experiments each running its
// own simulations holds the same bound.
func TestPoolRespectsWorkerBound(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int32
	}{
		{Config{}, 1},
		{Config{Workers: 1}, 1},
		{Config{Workers: 2}, 2},
		{Config{Workers: 4}, 4},
	} {
		var p concurrencyProbe
		r := hookRunner(tc.cfg, p.compute)
		if _, err := r.RunConfigsEach(context.Background(), distinctConfigs(16), nil); err != nil {
			t.Fatal(err)
		}
		if got := p.peak.Load(); got > tc.want || (tc.want == 1 && got != 1) {
			t.Errorf("Workers %d: RunConfigsEach peak concurrency %d, want ≤ %d", tc.cfg.Workers, got, tc.want)
		}

		var rp concurrencyProbe
		r = hookRunner(tc.cfg, rp.compute)
		exps := make([]Experiment, 8)
		for i := range exps {
			cfgs := distinctConfigs(3 * (i + 1))[3*i:]
			exps[i] = Experiment{ID: fmt.Sprint(i), Render: func(r *Runner) (string, error) {
				for _, cfg := range cfgs {
					if _, err := r.OutcomeConfig(r.ctx, cfg); err != nil {
						return "", err
					}
				}
				return fmt.Sprint(i), nil
			}}
		}
		outs := make([]string, len(exps))
		var mu sync.Mutex
		if err := r.RenderEach(exps, func(i int, out string) {
			mu.Lock()
			outs[i] = out
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			if out != fmt.Sprint(i) {
				t.Errorf("Workers %d: render %d returned %q", tc.cfg.Workers, i, out)
			}
		}
		if got := rp.peak.Load(); got > tc.want || (tc.want == 1 && got != 1) {
			t.Errorf("Workers %d: RenderEach peak concurrency %d, want ≤ %d", tc.cfg.Workers, got, tc.want)
		}
	}
}

// TestJoinerSurvivesStarterCancel pins that a caller joining an
// in-flight simulation does not inherit the starter's cancellation: the
// starter's context dies mid-run, the joiner's is live, so the joiner
// takes over and gets the outcome. A genuine failure is still shared.
func TestJoinerSurvivesStarterCancel(t *testing.T) {
	want := &core.Outcome{Refs: 7}
	started := make(chan struct{})
	var calls atomic.Int32
	r := hookRunner(Config{Seed: 1}, func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return nil, fmt.Errorf("sim: canceled: %w", context.Cause(ctx))
		}
		return want, nil
	})
	cfg := core.RunConfig{Workload: workload.Shell, System: core.Base, Scale: 1, Seed: 1}

	sctx, cancel := context.WithCancel(context.Background())
	starter := make(chan error, 1)
	go func() {
		_, err := r.OutcomeConfig(sctx, cfg)
		starter <- err
	}()
	<-started
	type result struct {
		o   *core.Outcome
		err error
	}
	joiner := make(chan result, 1)
	go func() {
		o, err := r.OutcomeConfig(context.Background(), cfg)
		joiner <- result{o, err}
	}()
	waitJoin(t, r)
	cancel()

	if err := <-starter; !errors.Is(err, context.Canceled) {
		t.Errorf("starter got %v, want context.Canceled", err)
	}
	if got := <-joiner; got.err != nil || got.o != want {
		t.Errorf("joiner got (%v, %v), want the outcome of a fresh simulation", got.o, got.err)
	}
	if st := r.Stats(); st.Executions != 2 {
		t.Errorf("stats %+v, want the joiner's retry to execute once more", st)
	}

	// A failure of the configuration itself is not retried: the joiner
	// shares it.
	boom := errors.New("boom")
	release := make(chan struct{})
	started = make(chan struct{})
	r = hookRunner(Config{Seed: 1}, func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
		close(started)
		<-release
		return nil, boom
	})
	go func() {
		_, err := r.OutcomeConfig(context.Background(), cfg)
		starter <- err
	}()
	<-started
	go func() {
		o, err := r.OutcomeConfig(context.Background(), cfg)
		joiner <- result{o, err}
	}()
	waitJoin(t, r)
	close(release)
	if err := <-starter; err != boom {
		t.Errorf("starter got %v, want boom", err)
	}
	if got := <-joiner; got.err != boom {
		t.Errorf("joiner got %v, want the shared failure", got.err)
	}
}

// waitJoin waits until a caller has joined r's in-flight simulation.
func waitJoin(t *testing.T, r *Runner) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); r.Stats().Joins == 0; {
		if time.Now().After(deadline) {
			t.Fatal("joiner never attached to the in-flight simulation")
		}
		time.Sleep(time.Millisecond)
	}
}
