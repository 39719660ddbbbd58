package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oscachesim/internal/cluster"
	"oscachesim/internal/core"
	"oscachesim/internal/store"
)

// TestResultsResource pins the /v1/results contract: a done job links
// its durable document via result_url, GET serves it, HEAD probes it
// without a body, and an unknown key 404s with the uniform envelope.
func TestResultsResource(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	_, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(41))
	v := waitJob(t, ts.URL, sub.ID)
	if v.State != JobDone {
		t.Fatalf("job finished %s", v.State)
	}
	if v.ResultURL != "/v1/results/"+v.Key {
		t.Fatalf("result_url %q, want /v1/results/%s", v.ResultURL, v.Key)
	}

	resp, err := http.Get(ts.URL + v.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: HTTP %d", resp.StatusCode)
	}
	var rv ResultView
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	if rv.Key != v.Key || rv.Kind != "run" || rv.SimVersion != core.SimVersion {
		t.Fatalf("result identity: %+v", rv)
	}
	if rv.Result == nil || rv.Result.Refs != v.Result.Refs || rv.Result.Cycles != v.Result.Cycles {
		t.Fatalf("stored result drifted from the job's: %+v vs %+v", rv.Result, v.Result)
	}

	// HEAD: same status, no body.
	req, _ := http.NewRequest(http.MethodHead, ts.URL+v.ResultURL, nil)
	hres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("HEAD result: HTTP %d", hres.StatusCode)
	}

	// Unknown key: 404 with the uniform envelope on GET, bare 404 on HEAD.
	gres, err := http.Get(ts.URL + "/v1/results/nope")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(gres.Body)
	gres.Body.Close()
	if gres.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown result: HTTP %d", gres.StatusCode)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "not_found" {
		t.Fatalf("unknown-key envelope %s (err %v)", body, err)
	}
	req, _ = http.NewRequest(http.MethodHead, ts.URL+"/v1/results/nope", nil)
	hres, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD unknown result: HTTP %d", hres.StatusCode)
	}
}

// TestRestartServesFromStore is the crash-recovery contract: a daemon
// restarted over the same store directory answers previously computed
// runs and campaigns terminal with "deduped": true and zero
// simulation.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	runReq := runBody(77)
	campReq := fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base","BCPref"],"scale":%d,"seed":3}`, testScale)

	st1, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Options{Workers: 2, QueueDepth: 8, Store: st1})
	var keys []string
	first := map[string]*JobView{}
	for path, body := range map[string]string{
		"/v1/runs": runReq, "/v1/campaigns": campReq,
	} {
		_, sub, _ := postJSON(t, ts1.URL+path, body)
		v := waitJob(t, ts1.URL, sub.ID)
		if v.State != JobDone {
			t.Fatalf("%s job finished %s (%s)", path, v.State, v.Error)
		}
		keys = append(keys, sub.Key)
		first[path] = v
	}
	firstReport := getCampaignReport(t, ts1.URL, first["/v1/campaigns"].ID, "")
	firstExecs := s1.localExecs.Load()
	if firstExecs == 0 {
		t.Fatal("first daemon executed nothing?")
	}
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted daemon: fresh process state, same directory.
	st2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().Replayed < 2 {
		t.Fatalf("replayed %d records, want >= 2 (run, campaign)", st2.Stats().Replayed)
	}
	s2, ts2 := newTestServer(t, Options{Workers: 2, QueueDepth: 8, Store: st2})
	for path, body := range map[string]string{
		"/v1/runs": runReq, "/v1/campaigns": campReq,
	} {
		status, sub, _ := postJSON(t, ts2.URL+path, body)
		if status != http.StatusOK {
			t.Fatalf("%s resubmit: HTTP %d, want 200 (deduped)", path, status)
		}
		if !sub.Deduped || sub.State != JobDone {
			t.Fatalf("%s resubmit: deduped=%v state=%s, want a terminal dedup", path, sub.Deduped, sub.State)
		}
		switch path {
		case "/v1/runs":
			if sub.Result == nil || sub.Result.Cycles == 0 {
				t.Fatalf("run served from store has no result: %+v", sub)
			}
			if !reflect.DeepEqual(sub.Result, first[path].Result) {
				t.Errorf("run result after restart %+v, first daemon's %+v", sub.Result, first[path].Result)
			}
		case "/v1/campaigns":
			if sub.Campaign == nil || sub.Campaign.CellsDone != 2 {
				t.Fatalf("campaign served from store: %+v", sub.Campaign)
			}
			if !reflect.DeepEqual(sub.Campaign, first[path].Campaign) {
				t.Errorf("campaign result after restart differs from the first daemon's")
			}
		}
	}
	if got := s2.localExecs.Load(); got != 0 {
		t.Fatalf("restarted daemon executed %d simulations, want 0", got)
	}
	// The stored keys answer directly too.
	for _, key := range keys {
		resp, err := http.Get(ts2.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/results/%s after restart: HTTP %d", key, resp.StatusCode)
		}
	}
	// The campaign's report survives the restart (Plan is rebuilt from
	// the request, the grid from the store).
	_, sub, _ := postJSON(t, ts2.URL+"/v1/campaigns", campReq)
	rep := getCampaignReport(t, ts2.URL, sub.ID, "")
	// The table's title names the job id, which differs per daemon.
	title := func(table, id string) string { return strings.Replace(table, id, "<id>", 1) }
	if title(rep.Table, sub.ID) != title(firstReport.Table, first["/v1/campaigns"].ID) {
		t.Errorf("report table after restart:\n%s\nfirst daemon's:\n%s", rep.Table, firstReport.Table)
	}
	if !reflect.DeepEqual(rep.Cells, firstReport.Cells) {
		t.Errorf("report cells after restart %+v, first daemon's %+v", rep.Cells, firstReport.Cells)
	}
}

// TestRestartMidCampaign restarts the coordinator in the middle of a
// campaign: the first daemon completes two of the grid's unique
// configurations over a file-backed store and stops with the rest
// unfinished; a new daemon on the same directory, given the whole
// campaign again, computes only the missing configurations, each key
// exactly once, and credits the stored ones to their cells.
func TestRestartMidCampaign(t *testing.T) {
	dir := t.TempDir()
	// cpus [4, 16, 4]: six cells, four unique configurations.
	body := fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base","BCPref"],"cpus":[4,16,4],"scale":%d,"seed":5}`, testScale)
	const before = 2

	st1, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	done1 := map[string]bool{}
	blocked := make(chan struct{}, 1)
	var calls1 int
	s1, ts1 := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		Store:      st1,
		execute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			mu.Lock()
			calls1++
			if calls1 <= before {
				done1[cfg.CanonicalKey()] = true
				mu.Unlock()
				return &core.Outcome{Config: cfg}, nil
			}
			mu.Unlock()
			select {
			case blocked <- struct{}{}:
			case <-ctx.Done():
			}
			<-ctx.Done()
			return nil, context.Cause(ctx)
		},
	})
	status, sub, _ := postJSON(t, ts1.URL+"/v1/campaigns", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	<-blocked // two configurations stored, the third in flight
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/campaigns/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := waitJob(t, ts1.URL, sub.ID); v.State != JobCanceled {
		t.Fatalf("first daemon's campaign ended %s, want canceled", v.State)
	}
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls2 := map[string]int{}
	_, ts2 := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		Store:      st2,
		execute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			mu.Lock()
			calls2[cfg.CanonicalKey()]++
			mu.Unlock()
			return &core.Outcome{Config: cfg}, nil
		},
	})
	status, sub, _ = postJSON(t, ts2.URL+"/v1/campaigns", body)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit after restart: HTTP %d, want 202 (the campaign never finished)", status)
	}
	v := waitJob(t, ts2.URL, sub.ID)
	if v.State != JobDone || v.Campaign == nil || v.Campaign.CellsDone != 6 || v.Campaign.UniqueCells != 4 {
		t.Fatalf("resubmitted campaign: state %s campaign %+v, want done with 6 cells from 4 unique", v.State, v.Campaign)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(done1) != before || len(calls2) != 4-before {
		t.Fatalf("first daemon stored %d configurations, restarted daemon computed %d; want %d and %d",
			len(done1), len(calls2), before, 4-before)
	}
	for key, n := range calls2 {
		if n != 1 || done1[key] {
			t.Errorf("key %s computed %d times after restart (stored before: %v), want once and only if missing",
				key, n, done1[key])
		}
	}
}

// TestCampaignRecordReadsCells pins where a stored campaign's results
// live: a campaign record lists its cells' keys and carries no results
// of its own, every cell's result is read from the cell's run record,
// and a cell whose run record is missing makes the campaign a store
// miss — GET /v1/results answers 404 and a resubmit recomputes just
// that cell. The campaign record here is in the layout older logs hold,
// with each cell's result and a "grid" inline; both are ignored.
func TestCampaignRecordReadsCells(t *testing.T) {
	body := fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base","BCPref"],"cpus":[4,8],"scale":%d,"seed":9}`, testScale)
	// Real runs: a recomputed cell must equal the first daemon's exactly.
	var calls atomic.Int32
	execute := func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
		calls.Add(1)
		return core.Run(ctx, cfg)
	}
	s1, ts1 := newTestServer(t, Options{Workers: 1, QueueDepth: 4, execute: execute})
	_, sub, _ := postJSON(t, ts1.URL+"/v1/campaigns", body)
	want := waitJob(t, ts1.URL, sub.ID)
	if want.State != JobDone || want.Campaign == nil || want.Campaign.CellsDone != 4 {
		t.Fatalf("first campaign: state %s campaign %+v", want.State, want.Campaign)
	}
	wantReport := getCampaignReport(t, ts1.URL, sub.ID, "")

	// The record the daemon wrote lists cells without results or grid.
	var written struct {
		Result struct {
			Cells []map[string]json.RawMessage `json:"cells"`
		} `json:"result"`
		Grid json.RawMessage `json:"grid"`
	}
	if err := json.Unmarshal(s1.store.Get(sub.Key).View, &written); err != nil {
		t.Fatal(err)
	}
	if written.Grid != nil || len(written.Result.Cells) != 4 {
		t.Fatalf("campaign record: grid %s, %d cells; want no grid and 4 cells", written.Grid, len(written.Result.Cells))
	}
	for i, cell := range written.Result.Cells {
		if _, ok := cell["result"]; ok || cell["key"] == nil {
			t.Errorf("campaign record cell %d: %v, want a key and no result", i, cell)
		}
	}

	// A second store: the campaign record in the older layout, with a
	// wrong inline result, and every cell's run record but one.
	old := *want.Campaign
	old.Cells = append([]CampaignCell(nil), old.Cells...)
	bogus := *old.Cells[0].Result
	bogus.Refs++
	old.Cells[0].Result = &bogus
	view, err := json.Marshal(map[string]any{"result": &old, "grid": wantReport.Cells})
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := store.Open("", nil)
	if err := st2.Put(&store.Record{Key: sub.Key, Kind: "campaign", SimVersion: core.SimVersion,
		StoredAt: time.Now().UTC(), View: view}); err != nil {
		t.Fatal(err)
	}
	lost := old.Cells[3].Key
	for _, cell := range old.Cells {
		if cell.Key != lost {
			if err := st2.Put(s1.store.Get(cell.Key)); err != nil {
				t.Fatal(err)
			}
		}
	}
	calls.Store(0)
	_, ts2 := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Store: st2, execute: execute})
	resp, err := http.Get(ts2.URL + "/v1/results/" + sub.Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/results of a campaign missing a cell: HTTP %d, want 404", resp.StatusCode)
	}
	status, sub2, _ := postJSON(t, ts2.URL+"/v1/campaigns", body)
	if status != http.StatusAccepted || sub2.Deduped {
		t.Fatalf("resubmit with a cell missing: HTTP %d deduped %v, want 202 (a store miss)", status, sub2.Deduped)
	}
	got := waitJob(t, ts2.URL, sub2.ID)
	if got.State != JobDone || calls.Load() != 1 {
		t.Fatalf("resubmitted campaign: state %s after %d simulations, want done after 1", got.State, calls.Load())
	}
	if !reflect.DeepEqual(got.Campaign, want.Campaign) {
		t.Errorf("recomputed campaign %+v, want %+v", got.Campaign, want.Campaign)
	}
	// The old-layout record now decodes, from the run records alone.
	resp, err = http.Get(ts2.URL + "/v1/results/" + sub.Key)
	if err != nil {
		t.Fatal(err)
	}
	var rv ResultView
	err = json.NewDecoder(resp.Body).Decode(&rv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || !reflect.DeepEqual(rv.Campaign, want.Campaign) {
		t.Errorf("GET /v1/results after the recompute: HTTP %d (decode err %v), campaign %+v, want %+v",
			resp.StatusCode, err, rv.Campaign, want.Campaign)
	}
}

// TestRetiredSweepRecordNotFound: a "sweep" record, as the retired
// sweep job kind appended to results.log, is not a servable result
// after a restart — GET and HEAD /v1/results/{key} both answer 404,
// GET with the not_found envelope.
func TestRetiredSweepRecordNotFound(t *testing.T) {
	dir := t.TempDir()
	const key = "sweep:0c5f9a"
	st1, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Put(&store.Record{Key: key, Kind: "sweep", SimVersion: core.SimVersion,
		StoredAt: time.Now().UTC(), View: json.RawMessage(`{"workload":"TRFD_4","points":[]}`)}); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Get(key) == nil {
		t.Fatal("the sweep record was not replayed")
	}
	_, ts := newTestServer(t, Options{Workers: 1, Store: st2})

	resp, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	err = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || err != nil || eb.Error.Code != "not_found" {
		t.Errorf("GET: HTTP %d code %q (decode err %v), want 404 not_found", resp.StatusCode, eb.Error.Code, err)
	}
	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/v1/results/"+key, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("HEAD: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestEvery429CarriesRetryAfter audits backpressure uniformly: every
// path that can answer 429 — run and campaign submission plus the
// forwarded-compute endpoint — must advertise Retry-After.
func TestEvery429CarriesRetryAfter(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		execute:    blockingHook(started, release),
	})
	defer close(release)

	// Fill the worker and the queue.
	if status, _, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1)); status != http.StatusAccepted {
		t.Fatalf("filler 1: HTTP %d", status)
	}
	<-started
	if status, _, _ := postJSON(t, ts.URL+"/v1/runs", runBody(2)); status != http.StatusAccepted {
		t.Fatalf("filler 2: HTTP %d", status)
	}

	submits := []struct {
		name, path, body string
	}{
		{"run", "/v1/runs", runBody(3)},
		{"campaign", "/v1/campaigns", fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base","BCPref"],"scale":%d}`, testScale)},
	}
	for _, tc := range submits {
		status, _, hdr := postJSON(t, ts.URL+tc.path, tc.body)
		if status != http.StatusTooManyRequests {
			t.Errorf("%s: HTTP %d, want 429", tc.name, status)
			continue
		}
		if hdr.Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", tc.name)
		}
	}

	// The forwarded-compute path is a run job too: with the worker and
	// the queue still full, a compute of a new key is refused the same
	// way.
	computeBody := func(seed int64) string {
		creq, err := cluster.EncodeConfig(core.RunConfig{Workload: "TRFD_4", System: core.Base, Scale: testScale, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(creq)
		return string(raw)
	}
	resp, err := http.Post(ts.URL+cluster.ComputePath, "application/json", strings.NewReader(computeBody(91)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("compute overflow: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("compute 429 without Retry-After")
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "queue_full" {
		t.Errorf("compute 429 envelope %s (err %v)", body, err)
	}
}

// TestCancelRunAndCampaign pins the uniform DELETE lifecycle on both
// job kinds: queued → canceled in place (200), running → signaled and
// wound down (202 then terminal "canceled"), terminal → reported as-is
// (200), unknown or wrong-kind id → 404.
func TestCancelRunAndCampaign(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		execute:    blockingHook(started, release),
	})
	defer close(release)

	del := func(path string) (int, *JobView) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var v JobView
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatalf("bad cancel view %s: %v", data, err)
			}
		}
		return resp.StatusCode, &v
	}

	// A running run: DELETE answers 202 and the job winds down canceled.
	_, running, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	<-started
	// A queued run: DELETE cancels it in place with 200.
	_, queued, _ := postJSON(t, ts.URL+"/v1/runs", runBody(2))
	if status, v := del("/v1/runs/" + queued.ID); status != http.StatusOK || v.State != JobCanceled {
		t.Fatalf("queued cancel: HTTP %d state %s, want 200 canceled", status, v.State)
	}
	if status, v := del("/v1/runs/" + running.ID); status != http.StatusAccepted || v.State != JobRunning {
		t.Fatalf("running cancel: HTTP %d state %s, want 202 running", status, v.State)
	}
	if v := waitJob(t, ts.URL, running.ID); v.State != JobCanceled {
		t.Fatalf("canceled run wound down %s, want canceled", v.State)
	}
	// A canceled key is retryable: the dedup index forgot it.
	status, retry, _ := postJSON(t, ts.URL+"/v1/runs", runBody(2))
	if status != http.StatusAccepted || retry.Deduped {
		t.Fatalf("retry after cancel: HTTP %d deduped=%v, want a fresh 202", status, retry.Deduped)
	}
	<-started
	if status, v := del("/v1/runs/" + retry.ID); status != http.StatusAccepted || v.ID != retry.ID {
		t.Fatalf("cleanup cancel: HTTP %d %+v", status, v)
	}
	waitJob(t, ts.URL, retry.ID)

	// Campaigns: wrong-kind and unknown ids 404; a running campaign
	// cancels with 202 and winds down canceled.
	if status, _ := del("/v1/campaigns/" + queued.ID); status != http.StatusNotFound {
		t.Fatalf("cross-kind cancel: HTTP %d, want 404", status)
	}
	if status, _ := del("/v1/runs/j-999999"); status != http.StatusNotFound {
		t.Fatalf("unknown id cancel: HTTP %d, want 404", status)
	}
	campReq := fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base"],"sizes_kb":[16,32],"scale":%d,"seed":9}`, testScale)
	_, camp, _ := postJSON(t, ts.URL+"/v1/campaigns", campReq)
	<-started
	if status, _ := del("/v1/campaigns/" + camp.ID); status != http.StatusAccepted {
		t.Fatalf("campaign cancel: HTTP %d, want 202", status)
	}
	if v := waitJob(t, ts.URL, camp.ID); v.State != JobCanceled {
		t.Fatalf("canceled campaign wound down %s", v.State)
	}
	// A terminal job: DELETE just reports it.
	if status, v := del("/v1/campaigns/" + camp.ID); status != http.StatusOK || v.State != JobCanceled {
		t.Fatalf("terminal cancel: HTTP %d state %s, want 200 canceled", status, v.State)
	}
}
