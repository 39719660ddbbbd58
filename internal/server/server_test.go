package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/sim"
)

// testScale keeps simulations fast: two scheduling rounds.
const testScale = 2

// newTestServer builds a Server plus an httptest front end and tears
// both down at cleanup.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.StreamInterval == 0 {
		opts.StreamInterval = 20 * time.Millisecond
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
	})
	return s, ts
}

// runBody renders a /v1/runs body.
func runBody(seed int64) string {
	return fmt.Sprintf(`{"workload":"TRFD_4","system":"Base","scale":%d,"seed":%d}`, testScale, seed)
}

// postJSON posts a body and decodes the response.
func postJSON(t *testing.T, url, body string) (int, *JobView, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var v JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("bad JobView %q: %v", data, err)
		}
	}
	return resp.StatusCode, &v, resp.Header
}

// getJob fetches one job view.
func getJob(t *testing.T, base, id string) *JobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: HTTP %d", resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return &v
}

// waitJob polls until the job is terminal.
func waitJob(t *testing.T, base, id string) *JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v := getJob(t, base, id)
		if v.State.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	status, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", status)
	}
	if sub.ID == "" || sub.Kind != "run" {
		t.Fatalf("bad submit view: %+v", sub)
	}
	v := waitJob(t, ts.URL, sub.ID)
	if v.State != JobDone {
		t.Fatalf("job finished %s (error %q), want done", v.State, v.Error)
	}
	r := v.Result
	if r == nil {
		t.Fatal("done job has no result")
	}
	if r.Workload != "TRFD_4" || r.System != "Base" {
		t.Errorf("result identity %s/%s", r.Workload, r.System)
	}
	if r.Refs == 0 || r.Cycles == 0 || r.OSCycles == 0 {
		t.Errorf("empty result counters: %+v", r)
	}
	if r.SimSeconds <= 0 {
		t.Errorf("sim_seconds %v", r.SimSeconds)
	}
	if v.Progress == nil || v.Progress.Fraction != 1 {
		t.Errorf("finished progress %+v, want fraction 1", v.Progress)
	}
	if v.Progress.RoundsTotal != testScale {
		t.Errorf("rounds_total %d, want %d", v.Progress.RoundsTotal, testScale)
	}
	if v.StartedAt == nil || v.FinishedAt == nil {
		t.Errorf("missing timestamps: %+v", v)
	}
}

// TestStreamingRun submits a multi-round run, which streams, and checks
// the service-level contract: the job completes with full counters and
// the progress view reports generation alongside simulation (gen_refs).
func TestStreamingRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	body := fmt.Sprintf(`{"workload":"TRFD_4","system":"Blk_Dma","scale":%d,"seed":5}`, testScale)
	status, sub, _ := postJSON(t, ts.URL+"/v1/runs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", status)
	}
	v := waitJob(t, ts.URL, sub.ID)
	if v.State != JobDone {
		t.Fatalf("streaming job finished %s (error %q), want done", v.State, v.Error)
	}
	if v.Result == nil || v.Result.Refs == 0 || v.Result.Cycles == 0 {
		t.Fatalf("empty streaming result: %+v", v.Result)
	}
	if v.Progress == nil || v.Progress.GenRefs != v.Progress.Refs {
		t.Fatalf("finished progress %+v, want gen_refs == refs", v.Progress)
	}
}

func TestDedupAndDistinctConfigs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	_, first, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	waitJob(t, ts.URL, first.ID)

	status, again, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if status != http.StatusOK {
		t.Errorf("duplicate submit: HTTP %d, want 200", status)
	}
	if !again.Deduped || again.ID != first.ID {
		t.Errorf("duplicate submit got %+v, want dedup onto %s", again, first.ID)
	}

	status, other, _ := postJSON(t, ts.URL+"/v1/runs", runBody(2))
	if status != http.StatusAccepted {
		t.Errorf("distinct submit: HTTP %d, want 202", status)
	}
	if other.ID == first.ID {
		t.Errorf("distinct config deduplicated onto %s", first.ID)
	}
	waitJob(t, ts.URL, other.ID)
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name, body string
	}{
		{"empty", ""},
		{"not json", "hello"},
		{"unknown workload", `{"workload":"nope","system":"Base"}`},
		{"unknown system", `{"workload":"TRFD_4","system":"nope"}`},
		{"negative scale", `{"workload":"TRFD_4","system":"Base","scale":-1}`},
		{"huge scale", `{"workload":"TRFD_4","system":"Base","scale":100000}`},
		{"negative seed", `{"workload":"TRFD_4","system":"Base","seed":-5}`},
		{"unknown field", `{"workload":"TRFD_4","system":"Base","bogus":1}`},
		{"trailing data", `{"workload":"TRFD_4","system":"Base"} extra`},
		{"zero cache", `{"workload":"TRFD_4","system":"Base","machine":{"l1d_size_kb":0}}`},
		{"bad line size", `{"workload":"TRFD_4","system":"Base","machine":{"l1d_line":24}}`},
		{"huge cache", `{"workload":"TRFD_4","system":"Base","machine":{"l1d_size_kb":9999999}}`},
		{"l2 line below l1", `{"workload":"TRFD_4","system":"Base","machine":{"l1d_line":64,"l2_line":32}}`},
	}
	for _, tc := range cases {
		status, _, _ := postJSON(t, ts.URL+"/v1/runs", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, status)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/runs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestSweepJob pins the former sweep bodies on the geometry axes,
// now posted to /v1/campaigns: each becomes a campaign job whose cells
// are exactly the configurations the body names, each with core.Run's
// counters; an identical second POST dedupes onto it. The line-size
// body leaves l2_line unset, so every cell keeps the base machine's
// 64-byte L2 line (the sweep kind used to force 32 there).
func TestSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	cfg := func(sys core.System, edit func(*sim.Params)) core.RunConfig {
		p := sim.DefaultParams()
		edit(&p)
		return core.RunConfig{Workload: "TRFD_4", System: sys, Scale: testScale, Seed: 1, Machine: &p}
	}
	var sizes, lines []core.RunConfig
	for _, kb := range []uint64{16, 32, 64} {
		for _, sys := range []core.System{core.Base, core.BlkDma} {
			sizes = append(sizes, cfg(sys, func(p *sim.Params) { p.L1D.Size = kb * 1024 }))
		}
	}
	for _, line := range []uint64{16, 32} {
		lines = append(lines, cfg(core.Base, func(p *sim.Params) {
			p.L1D.LineSize, p.L1I.LineSize, p.L2.LineSize = line, line, 64
		}))
	}
	sizesBody := fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base","Blk_Dma"],"sizes_kb":[16,32,64],"scale":%d,"seed":1}`, testScale)
	linesBody := fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base"],"line_sizes":[16,32],"machine":{"l2_line":64},"scale":%d,"seed":1}`, testScale)

	checkSweepCampaign(t, ts.URL, sizesBody, sizes)
	checkSweepCampaign(t, ts.URL, linesBody, lines)
}

// checkSweepCampaign posts a former sweep body to /v1/campaigns,
// checks the campaign job's cells against want, and checks an
// identical second POST answers 200 deduped.
func checkSweepCampaign(t *testing.T, base, body string, want []core.RunConfig) {
	t.Helper()
	status, sub, _ := postJSON(t, base+"/v1/campaigns", body)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("POST /v1/campaigns: HTTP %d", status)
	}
	if sub.Kind != "campaign" || !strings.HasPrefix(sub.Key, "campaign:") {
		t.Fatalf("POST /v1/campaigns made kind %q key %q, want a campaign", sub.Kind, sub.Key)
	}
	checkCells(t, waitJob(t, base, sub.ID), want)
	status, again, _ := postJSON(t, base+"/v1/campaigns", body)
	if status != http.StatusOK || !again.Deduped || again.ID != sub.ID {
		t.Errorf("second POST: HTTP %d deduped %v id %s, want 200 dedup onto %s",
			status, again.Deduped, again.ID, sub.ID)
	}
}

// checkCells requires a done campaign whose cells are want, in order:
// each cell's key is the configuration's canonical key and its result
// is core.Run's for that configuration.
func checkCells(t *testing.T, v *JobView, want []core.RunConfig) {
	t.Helper()
	if v.State != JobDone || v.Campaign == nil {
		t.Fatalf("campaign finished %s (error %q)", v.State, v.Error)
	}
	if len(v.Campaign.Cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(v.Campaign.Cells), len(want))
	}
	for i, cfg := range want {
		cell := v.Campaign.Cells[i]
		if cell.Key != cfg.CanonicalKey() {
			t.Errorf("cell %d %v: key is not its configuration's", i, cell.Coords)
			continue
		}
		o, err := core.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := *cell.Result, *summarize(o); got != want {
			t.Errorf("cell %d %v: result %+v, core.Run %+v", i, cell.Coords, got, want)
		}
	}
}

// blockingHook returns an execute seam whose calls block until release
// is closed, reporting each start on started.
func blockingHook(started chan<- string, release <-chan struct{}) func(context.Context, core.RunConfig) (*core.Outcome, error) {
	return func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
		started <- string(cfg.Workload)
		select {
		case <-release:
			return &core.Outcome{Config: cfg}, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

func TestQueueFullReturns429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		execute:    blockingHook(started, release),
	})

	// Job 1 occupies the single worker...
	status, j1, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if status != http.StatusAccepted {
		t.Fatalf("job1: HTTP %d", status)
	}
	<-started
	// ...job 2 fills the queue...
	status, j2, _ := postJSON(t, ts.URL+"/v1/runs", runBody(2))
	if status != http.StatusAccepted {
		t.Fatalf("job2: HTTP %d", status)
	}
	// ...and job 3 must be rejected with backpressure advice.
	status, _, hdr := postJSON(t, ts.URL+"/v1/runs", runBody(3))
	if status != http.StatusTooManyRequests {
		t.Fatalf("job3: HTTP %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	<-started // job 2 starts after job 1 frees the worker
	if v := waitJob(t, ts.URL, j1.ID); v.State != JobDone {
		t.Errorf("job1 finished %s", v.State)
	}
	if v := waitJob(t, ts.URL, j2.ID); v.State != JobDone {
		t.Errorf("job2 finished %s", v.State)
	}

	// With capacity free again the rejected configuration is accepted.
	status, j3, _ := postJSON(t, ts.URL+"/v1/runs", runBody(3))
	if status != http.StatusAccepted {
		t.Fatalf("job3 retry: HTTP %d, want 202", status)
	}
	<-started
	if v := waitJob(t, ts.URL, j3.ID); v.State != JobDone {
		t.Errorf("job3 finished %s", v.State)
	}
}

func TestDrainFinishesRunningCancelsQueued(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	srv := New(Options{
		Workers:        1,
		QueueDepth:     4,
		StreamInterval: 20 * time.Millisecond,
		execute:        blockingHook(started, release),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, running, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if status != http.StatusAccepted {
		t.Fatalf("running job: HTTP %d", status)
	}
	<-started
	status, queued, _ := postJSON(t, ts.URL+"/v1/runs", runBody(2))
	if status != http.StatusAccepted {
		t.Fatalf("queued job: HTTP %d", status)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	// The drain must wait for the in-flight simulation.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v while a job was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	if v := getJob(t, ts.URL, running.ID); v.State != JobDone {
		t.Errorf("running job finished %s, want done", v.State)
	}
	if v := getJob(t, ts.URL, queued.ID); v.State != JobCanceled {
		t.Errorf("queued job finished %s, want canceled", v.State)
	}
	// Intake is closed.
	status, _, _ = postJSON(t, ts.URL+"/v1/runs", runBody(3))
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: HTTP %d, want 503", status)
	}
}

func TestStreamEndpoint(t *testing.T) {
	// The execute seam blocks the job until release closes, so the
	// stream is guaranteed to observe at least one non-terminal frame.
	started := make(chan string, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		execute:    blockingHook(started, release),
	})
	_, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	<-started

	resp, err := http.Get(ts.URL + "/v1/runs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var progress, results int
	var last StreamFrame
	dec := json.NewDecoder(resp.Body)
	released := false
	for {
		var f StreamFrame
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("stream decode: %v", err)
		}
		switch f.Type {
		case "progress":
			progress++
			if !released {
				released = true
				close(release)
			}
		case "result":
			results++
			last = f
		default:
			t.Fatalf("unknown frame type %q", f.Type)
		}
	}
	if progress < 1 {
		t.Error("stream carried no progress frames")
	}
	if results != 1 {
		t.Fatalf("stream carried %d result frames, want 1", results)
	}
	if last.Job == nil || last.Job.State != JobDone || last.Job.Result == nil {
		t.Errorf("final frame %+v, want done with result", last.Job)
	}

	resp, err = http.Get(ts.URL + "/v1/runs/j-999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stream of unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// metricsSnapshot fetches and parses /metrics.
func metricsSnapshot(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("metrics not valid JSON: %v\n%s", err, data)
	}
	return m
}

// healthz fetches /healthz, failing unless it answers 200.
func healthz(t *testing.T, base string) (health struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
}) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	return health
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	if health := healthz(t, ts.URL); !health.OK || health.Draining {
		t.Errorf("healthz %+v", health)
	}

	_, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	waitJob(t, ts.URL, sub.ID)
	postJSON(t, ts.URL+"/v1/runs", runBody(1)) // dedup hit

	m := metricsSnapshot(t, ts.URL)
	for _, key := range []string{
		"queue_depth", "queue_capacity", "workers",
		"jobs_queued", "jobs_running", "jobs_done", "jobs_failed",
		"jobs_canceled", "jobs_deduped", "jobs_rejected",
		"cache_hits", "cache_misses", "cache_hit_ratio", "sim_seconds_served",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if m["jobs_done"].(float64) < 1 {
		t.Errorf("jobs_done %v", m["jobs_done"])
	}
	if m["jobs_deduped"].(float64) < 1 {
		t.Errorf("jobs_deduped %v", m["jobs_deduped"])
	}
	if m["sim_seconds_served"].(float64) <= 0 {
		t.Errorf("sim_seconds_served %v", m["sim_seconds_served"])
	}

	// A draining node stays live: 200 with draining true.
	drainServer(t, s)
	if health := healthz(t, ts.URL); !health.OK || !health.Draining {
		t.Errorf("healthz while draining %+v, want ok and draining", health)
	}
}

// TestMetricsDocumentPinned pins the /v1/metrics surface a single node
// exposes: the JSON document's exact key set, each value a JSON number
// and the counts integers, and every Prometheus family by name and
// type, histograms and per-endpoint latency included.
func TestMetricsDocumentPinned(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fractional := map[string]bool{"cache_hit_ratio": true, "sim_seconds_served": true}
	keys := []string{
		"cache_hit_ratio", "cache_hits", "cache_misses",
		"campaign_cells_deduped_total", "campaign_cells_total",
		"cluster_compute_served", "cluster_forwarded", "cluster_nodes",
		"cluster_requeued", "cluster_routed",
		"jobs_canceled", "jobs_deduped", "jobs_done", "jobs_failed",
		"jobs_queued", "jobs_rejected", "jobs_running",
		"local_executions", "queue_capacity", "queue_depth",
		"sim_seconds_served", "store_hits", "store_records",
		"store_served_jobs", "workers",
	}
	for _, k := range keys {
		n, ok := doc[k].(json.Number)
		switch {
		case !ok:
			t.Errorf("JSON key %q: %#v, want a number", k, doc[k])
		case !fractional[k]:
			if _, err := n.Int64(); err != nil {
				t.Errorf("JSON key %q: %s, want an integer", k, n)
			}
		}
	}
	if len(doc) != len(keys) {
		t.Errorf("JSON document has %d keys, want %d: %v", len(doc), len(keys), doc)
	}

	text, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(text.Body)
	text.Body.Close()
	families := map[string]string{
		"ossimd_cache_hit_ratio":              "gauge",
		"ossimd_cache_hits":                   "gauge",
		"ossimd_cache_misses":                 "gauge",
		"ossimd_campaign_cells_deduped_total": "counter",
		"ossimd_campaign_cells_total":         "counter",
		"ossimd_campaign_seconds":             "histogram",
		"ossimd_cluster_compute_served_total": "counter",
		"ossimd_cluster_forwarded_total":      "counter",
		"ossimd_cluster_requeued_total":       "counter",
		"ossimd_cluster_routed_total":         "counter",
		"ossimd_http_request_seconds":         "histogram",
		"ossimd_jobs_canceled_total":          "counter",
		"ossimd_jobs_deduped_total":           "counter",
		"ossimd_jobs_done_total":              "counter",
		"ossimd_jobs_failed_total":            "counter",
		"ossimd_jobs_queued_total":            "counter",
		"ossimd_jobs_rejected_total":          "counter",
		"ossimd_jobs_running":                 "gauge",
		"ossimd_local_executions":             "gauge",
		"ossimd_queue_capacity":               "gauge",
		"ossimd_queue_depth":                  "gauge",
		"ossimd_queue_wait_seconds":           "histogram",
		"ossimd_run_stage_seconds":            "histogram",
		"ossimd_sim_seconds_served":           "gauge",
		"ossimd_store_hits_total":             "gauge",
		"ossimd_store_records":                "gauge",
		"ossimd_store_replay_skipped":         "gauge",
		"ossimd_store_served_jobs_total":      "counter",
		"ossimd_workers":                      "gauge",
	}
	for name, kind := range families {
		if !strings.Contains(string(body), "# TYPE "+name+" "+kind+"\n") {
			t.Errorf("exposition lacks the %s family %s", kind, name)
		}
	}
	if n := strings.Count(string(body), "# TYPE "); n != len(families) {
		t.Errorf("exposition has %d families, want %d:\n%s", n, len(families), body)
	}
}

func TestFailedJobIsRetriable(t *testing.T) {
	fail := true
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		execute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			if fail {
				return nil, fmt.Errorf("injected failure")
			}
			return &core.Outcome{Config: cfg}, nil
		},
	})
	_, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if v := waitJob(t, ts.URL, sub.ID); v.State != JobFailed || v.Error == "" {
		t.Fatalf("job finished %s (%q), want failed", v.State, v.Error)
	}
	// The failure must not be served from the dedup index: the same
	// configuration gets a fresh job.
	fail = false
	status, again, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if status != http.StatusAccepted || again.ID == sub.ID {
		t.Fatalf("retry after failure: HTTP %d id %s (original %s)", status, again.ID, sub.ID)
	}
	if v := waitJob(t, ts.URL, again.ID); v.State != JobDone {
		t.Errorf("retry finished %s", v.State)
	}
}

// TestResponseBodiesAreJSON spot-checks that error paths answer the
// JSON error envelope.
func TestResponseBodiesAreJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
		t.Errorf("400 body not a JSON error envelope: %v %+v", err, e)
	}
}

// drainServer drains srv with a generous deadline.
func drainServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestJobViewStageTimings submits a fresh run and checks the stage
// decomposition the observability layer attaches to the job view: the
// stages are present, simulate dominates a real run, and their total
// approximates the job's own wall clock (started→finished) — the
// span-sum property that makes the breakdown trustworthy.
func TestJobViewStageTimings(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	// A fresh (workload, seed) pair so the run actually executes
	// rather than deduplicating onto another test's job. A single-round
	// run builds round 0 and starts no producer.
	body := `{"workload":"ARC2D+Fsck","system":"Base","scale":1,"seed":77}`
	status, sub, _ := postJSON(t, ts.URL+"/v1/runs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	v := waitJob(t, ts.URL, sub.ID)
	if v.State != JobDone {
		t.Fatalf("job finished %s (%q)", v.State, v.Error)
	}
	st := v.Stages
	if st == nil {
		t.Fatal("done job has no stage view")
	}
	if st.BuildSeconds <= 0 || st.SimulateSeconds <= 0 {
		t.Errorf("single-round run missing build/simulate: %+v", st)
	}
	if st.StreamSeconds != 0 {
		t.Errorf("single-round run reports stream time: %+v", st)
	}
	if st.TotalSeconds <= 0 {
		t.Fatalf("total_seconds %v", st.TotalSeconds)
	}
	wall := v.FinishedAt.Sub(*v.StartedAt).Seconds()
	// The stages decompose the execution inside the job's wall clock;
	// scheduling overhead means total <= wall, and on a fresh run the
	// stages should account for most of it.
	if st.TotalSeconds > wall+0.05 {
		t.Errorf("stage total %.4fs exceeds job wall clock %.4fs", st.TotalSeconds, wall)
	}
	if st.TotalSeconds < wall/2 {
		t.Errorf("stage total %.4fs under half the job wall clock %.4fs — stages unaccounted", st.TotalSeconds, wall)
	}
	if v.QueueWaitSeconds < 0 {
		t.Errorf("queue_wait_seconds %v", v.QueueWaitSeconds)
	}

	// A multi-round run also streams the rounds after round 0.
	obody := fmt.Sprintf(`{"workload":"ARC2D+Fsck","system":"Base","scale":%d,"seed":79}`, testScale)
	_, sub3, _ := postJSON(t, ts.URL+"/v1/runs", obody)
	v3 := waitJob(t, ts.URL, sub3.ID)
	if v3.State != JobDone || v3.Stages == nil {
		t.Fatalf("multi-round job %s, stages %+v", v3.State, v3.Stages)
	}
	if v3.Stages.StreamSeconds <= 0 || v3.Stages.BuildSeconds <= 0 {
		t.Errorf("multi-round stage view %+v, want stream>0 and build>0", v3.Stages)
	}
}

// TestRunGenStallsInStages pins where a run's generation stalls are
// reported: in the job's stages, which describe the execution, and not
// in its result, which is a pure function of the run's key.
func TestRunGenStallsInStages(t *testing.T) {
	execute := func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
		o, err := core.Run(ctx, cfg)
		if o != nil {
			o.GenStalls, o.GenStallTime = 5, 250*time.Millisecond
		}
		return o, err
	}
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, execute: execute})
	_, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(83))
	if v := waitJob(t, ts.URL, sub.ID); v.State != JobDone || v.Stages == nil ||
		v.Stages.GenStalls != 5 || v.Stages.GenStallSeconds != 0.25 {
		t.Fatalf("job %s stages %+v, want 5 stalls over 0.25s", v.State, v.Stages)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw["result"], []byte("gen_stall")) || !bytes.Contains(raw["stages"], []byte(`"gen_stalls"`)) {
		t.Errorf("result %s stages %s, want the stalls in stages only", raw["result"], raw["stages"])
	}
}

// TestMetricsPrometheusExposition pins the /v1/metrics content
// negotiation: JSON by default, the Prometheus text exposition under
// ?format=prometheus or a scraper's Accept header, including the
// ossimd_run_stage_seconds histogram series with real observations.
// The simulate stage is observed once per local execution: two unique
// runs, a duplicate submit and a campaign whose Base cell is one of
// those runs leave its count equal to the node's executions (3).
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	runOf := func(seed int) string {
		return fmt.Sprintf(`{"workload":"TRFD+Make","system":"Base","scale":%d,"seed":%d}`, testScale, seed)
	}
	for _, body := range []string{runOf(91), runOf(92), runOf(91)} {
		_, sub, _ := postJSON(t, ts.URL+"/v1/runs", body)
		if v := waitJob(t, ts.URL, sub.ID); v.State != JobDone {
			t.Fatalf("run finished %s (%q)", v.State, v.Error)
		}
	}
	camp := fmt.Sprintf(`{"workload":"TRFD+Make","systems":["Base","BCPref"],"scale":%d,"seed":91}`, testScale)
	_, sub, _ := postJSON(t, ts.URL+"/v1/campaigns", camp)
	if v := waitJob(t, ts.URL, sub.ID); v.State != JobDone {
		t.Fatalf("campaign finished %s (%q)", v.State, v.Error)
	}
	var cv ClusterView
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&cv)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cv.Self.Executions != 3 {
		t.Fatalf("self.executions %d, want 3 (two runs and one new campaign cell)", cv.Self.Executions)
	}

	fetch := func(url, accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data), resp.Header.Get("Content-Type")
	}

	// Default stays JSON.
	jsonBody, ct := fetch(ts.URL+"/v1/metrics", "")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default content type %q, want JSON", ct)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(jsonBody), &m); err != nil {
		t.Fatalf("default body not JSON: %v", err)
	}

	check := func(text, ct string) {
		t.Helper()
		if !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("prometheus content type %q", ct)
		}
		for _, want := range []string{
			"# TYPE ossimd_run_stage_seconds histogram",
			`ossimd_run_stage_seconds_bucket{stage="simulate",le="+Inf"}`,
			`ossimd_run_stage_seconds_count{stage="build"}`,
			"# TYPE ossimd_jobs_done_total counter",
			"# TYPE ossimd_queue_depth gauge",
			"ossimd_queue_wait_seconds_count",
			`ossimd_http_request_seconds_bucket{endpoint="/v1/runs"`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("exposition missing %q", want)
			}
		}
		// Each execution observed the simulate stage exactly once.
		want := fmt.Sprintf(`ossimd_run_stage_seconds_count{stage="simulate"} %d`, cv.Self.Executions)
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	text, ct := fetch(ts.URL+"/v1/metrics?format=prometheus", "")
	check(text, ct)
	text, ct = fetch(ts.URL+"/v1/metrics", "text/plain;version=0.0.4")
	check(text, ct)
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestStructuredRequestLogging pins the slog contract: with a Logger
// configured, every request produces a structured record with method,
// path and status, and job lifecycle records carry the job id.
func TestStructuredRequestLogging(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Logger: logger})
	_, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(21))
	waitJob(t, ts.URL, sub.ID)

	var sawRequest, sawStarted, sawFinished bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q (%v)", line, err)
		}
		switch rec["msg"] {
		case "request":
			if rec["method"] == "POST" && rec["path"] == "/v1/runs" && rec["status"] == float64(202) {
				sawRequest = true
			}
		case "job started":
			if rec["job_id"] == sub.ID {
				sawStarted = true
				if _, ok := rec["queue_wait_ms"]; !ok {
					t.Error("job started record lacks queue_wait_ms")
				}
			}
		case "job finished":
			if rec["job_id"] == sub.ID && rec["state"] == "done" {
				sawFinished = true
			}
		}
	}
	if !sawRequest || !sawStarted || !sawFinished {
		t.Errorf("log coverage request=%v started=%v finished=%v\n%s",
			sawRequest, sawStarted, sawFinished, buf.String())
	}
}
