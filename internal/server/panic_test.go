package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"oscachesim/internal/cluster"
	"oscachesim/internal/core"
)

// TestSimulationPanicFailsOnlyItsJob pins the daemon's panic boundary: a
// simulation that panics fails its own job with an internal error
// naming the panic, resolves its runner flight so a joiner waiting on
// the same key gets that error instead of hanging, stores nothing, and
// leaves the daemon serving other keys. The stack goes to the logger.
func TestSimulationPanicFailsOnlyItsJob(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var logs syncBuffer
	s, ts := newTestServer(t, Options{
		Workers:    1,
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

	status, job, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", status)
	}
	<-started

	// A forwarded compute of the same key joins the job's flight.
	cfg, _, err := decodeRunRequest(strings.NewReader(runBody(1)))
	if err != nil {
		t.Fatal(err)
	}
	creq, err := cluster.EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(creq)
	type reply struct {
		status int
		body   ErrorBody
	}
	joined := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+cluster.ComputePath, "application/json", strings.NewReader(string(raw)))
		if err != nil {
			joined <- reply{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var eb ErrorBody
		json.Unmarshal(data, &eb)
		joined <- reply{resp.StatusCode, eb}
	}()
	for deadline := time.Now().Add(10 * time.Second); s.runner.Stats().Joins == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the forwarded compute never joined the flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)

	v := waitJob(t, ts.URL, job.ID)
	if v.State != JobFailed || !strings.Contains(v.Error, "internal") || !strings.Contains(v.Error, "seeded fault") {
		t.Errorf("job %s error %q, want failed with an internal error naming the panic", v.State, v.Error)
	}
	select {
	case r := <-joined:
		if r.status != http.StatusInternalServerError || r.body.Error.Code != "internal" || !strings.Contains(r.body.Error.Message, "seeded fault") {
			t.Errorf("joiner got HTTP %d %+v, want 500 internal naming the panic", r.status, r.body.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the joiner hangs on the panicked flight")
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
