package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"oscachesim/internal/core"
)

// TestSimulationPanicFailsOnlyItsJob pins the daemon's panic boundary: a
// simulation that panics fails its own job with an internal error
// naming the panic, answers a forwarded compute deduplicated onto that
// job with the same error, resolves its runner flight so a campaign
// cell joining it on the same key gets that error instead of hanging,
// stores nothing, and leaves the daemon serving other keys. The stack
// goes to the logger.
func TestSimulationPanicFailsOnlyItsJob(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var logs syncBuffer
	s, ts := newTestServer(t, Options{
		Workers:    2,
		QueueDepth: 4,
		Logger:     slog.New(slog.NewJSONHandler(&logs, nil)),
		execute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			if cfg.Seed == 1 {
				started <- struct{}{}
				<-release
				panic("seeded fault")
			}
			return &core.Outcome{Config: cfg}, nil
		},
	})
	// Unblock the simulation even if the test fails early, so the
	// server's drain at cleanup does not wait on it.
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)

	status, job, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", status)
	}
	<-started

	// A forwarded compute of the same key is deduplicated onto the job.
	cfg := runConfig(t, 1)
	type reply struct {
		status int
		body   ErrorBody
	}
	joined := make(chan reply, 1)
	go func() {
		status, data, _, _ := postCompute(ts.URL, cfg)
		var eb ErrorBody
		json.Unmarshal(data, &eb)
		joined <- reply{status, eb}
	}()
	waitFor(t, "the forwarded compute to join the job", func() bool { return s.metrics.deduped.Value() == 1 })

	// A campaign cell of the same key, on the second worker, joins the
	// job's runner flight.
	status, camp, _ := postJSON(t, ts.URL+"/v1/campaigns",
		fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base"],"scale":%d,"seed":1}`, testScale))
	if status != http.StatusAccepted {
		t.Fatalf("POST campaign: HTTP %d", status)
	}
	waitFor(t, "the campaign cell to join the flight", func() bool { return s.runner.Stats().Joins == 1 })
	releaseOnce()

	v := waitJob(t, ts.URL, job.ID)
	if v.State != JobFailed || !strings.Contains(v.Error, "internal") || !strings.Contains(v.Error, "seeded fault") {
		t.Errorf("job %s error %q, want failed with an internal error naming the panic", v.State, v.Error)
	}
	if v := waitJob(t, ts.URL, camp.ID); v.State != JobFailed || !strings.Contains(v.Error, "seeded fault") {
		t.Errorf("campaign %s error %q, want failed naming the panic", v.State, v.Error)
	}
	select {
	case r := <-joined:
		if r.status != http.StatusInternalServerError || r.body.Error.Code != "internal" || !strings.Contains(r.body.Error.Message, "seeded fault") {
			t.Errorf("forward got HTTP %d %+v, want 500 internal naming the panic", r.status, r.body.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the forward hangs on the panicked job")
	}
	if rec := s.Store().Get(cfg.CanonicalKey()); rec != nil {
		t.Errorf("the panicked run reached the store: %+v", rec)
	}
	if l := logs.String(); !strings.Contains(l, "simulation panicked") || !strings.Contains(l, "panic_test.go") {
		t.Errorf("log lacks the panic and its stack:\n%s", l)
	}

	status, other, _ := postJSON(t, ts.URL+"/v1/runs", runBody(2))
	if status != http.StatusAccepted {
		t.Fatalf("POST after the panic: HTTP %d", status)
	}
	if v := waitJob(t, ts.URL, other.ID); v.State != JobDone {
		t.Errorf("job after the panic finished %s: %s", v.State, v.Error)
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
