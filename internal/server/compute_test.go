package server

// Tests of POST /v1/internal/compute as a run job: a forwarded compute
// shares the node's queue and workers, and is visible on the worker as
// a run job in its listing, counters and stage histograms.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"oscachesim/internal/cluster"
	"oscachesim/internal/core"
)

// postCompute sends cfg to a node's forwarded-compute endpoint the way
// a coordinator does and returns the response status, body and
// headers. It reports failures as errors so goroutines can use it.
func postCompute(base string, cfg core.RunConfig) (int, []byte, http.Header, error) {
	creq, err := cluster.EncodeConfig(cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	raw, _ := json.Marshal(creq)
	resp, err := http.Post(base+cluster.ComputePath, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// runConfig decodes runBody(seed) into the configuration a forward of
// the same run carries.
func runConfig(t *testing.T, seed int64) core.RunConfig {
	t.Helper()
	cfg, _, err := decodeRunRequest(strings.NewReader(runBody(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestNodeSimulationsBoundedByWorkers pins that a node's worker pool
// bounds every simulation it runs: with one worker busy on a run job,
// concurrent forwards of other keys queue behind it (the queue holds
// two) or are refused with 429, and never simulate beside it.
func TestNodeSimulationsBoundedByWorkers(t *testing.T) {
	var cur, peak atomic.Int32
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 2,
		execute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			n := cur.Add(1)
			defer cur.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			started <- struct{}{}
			select {
			case <-release:
				return &core.Outcome{Config: cfg}, nil
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
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

	const forwards = 5
	type reply struct {
		status int
		retry  string
		err    error
	}
	replies := make(chan reply, forwards)
	for seed := int64(2); seed < 2+forwards; seed++ {
		cfg := runConfig(t, seed)
		go func() {
			status, _, hdr, err := postCompute(ts.URL, cfg)
			replies <- reply{status, hdr.Get("Retry-After"), err}
		}()
	}
	// Every forward is accounted for once it is refused, queued or
	// simulating.
	waitFor(t, "every forward to be admitted or refused", func() bool {
		return int(s.metrics.rejected.Value())+len(s.queue)+int(cur.Load()) == 1+forwards
	})
	releaseOnce()

	var ok, refused int
	for i := 0; i < forwards; i++ {
		r := <-replies
		switch {
		case r.err != nil:
			t.Fatalf("forward: %v", r.err)
		case r.status == http.StatusOK:
			ok++
		case r.status == http.StatusTooManyRequests && r.retry != "":
			refused++
		default:
			t.Errorf("forward: HTTP %d (Retry-After %q), want 200 or 429 with Retry-After", r.status, r.retry)
		}
	}
	if v := waitJob(t, ts.URL, job.ID); v.State != JobDone {
		t.Errorf("run job finished %s: %s", v.State, v.Error)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("peak concurrent simulations %d, want 1 (the worker count)", p)
	}
	if ok != 2 || refused != 3 {
		t.Errorf("forwards: %d answered 200 and %d refused, want 2 (the queue depth) and 3", ok, refused)
	}
}

// TestForwardedComputeIsWorkerJob pins a forward's identity on the
// worker: the coordinator's forward shows up in the worker's GET
// /v1/runs as a done run job under its key, counts in its jobs_done
// (equal to its own executions, as the cluster smoke check audits),
// and observes the worker's simulate-stage histogram.
func TestForwardedComputeIsWorkerJob(t *testing.T) {
	h := newCluster(t, 1)
	status, sub, _ := postJSON(t, h.coordTS.URL+"/v1/runs", runBody(7))
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	if v := waitJob(t, h.coordTS.URL, sub.ID); v.State != JobDone {
		t.Fatalf("job finished %s: %s", v.State, v.Error)
	}
	worker := h.wsrv[0].URL

	list := getList(t, worker+"/v1/runs")
	if len(list.Jobs) != 1 {
		t.Fatalf("worker lists %d jobs, want the forward alone: %+v", len(list.Jobs), list.Jobs)
	}
	if j := list.Jobs[0]; j.Kind != "run" || j.State != JobDone || j.Key != sub.Key {
		t.Errorf("worker job %+v, want a done run job under key %s", j, sub.Key)
	}

	m := metricsSnapshot(t, worker)
	if got, execs := m["jobs_done"], float64(h.workers[0].localExecs.Load()); got != execs || execs != 1 {
		t.Errorf("worker jobs_done %v, executions %v, want both 1", got, execs)
	}
	if got := m["cluster_compute_served"]; got != 1.0 {
		t.Errorf("worker cluster_compute_served %v, want 1", got)
	}

	resp, err := http.Get(worker + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	const series = `ossimd_run_stage_seconds_count{stage="simulate"} `
	if !strings.Contains(string(text), series) || strings.Contains(string(text), series+"0\n") {
		t.Errorf("worker's simulate stage histogram did not observe the forward:\n%s", text)
	}
}
