package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"oscachesim/internal/experiment"
)

// TestConcurrentDuplicateRequests is the acceptance check from the
// issue: at the production shape (-workers 4 -queue 64), 100 concurrent
// identical POSTs must cost exactly one simulation, return 100
// identical results, and leave the cache hit ratio at or above 0.99.
// Run under -race it also exercises the submit/dedup/worker paths for
// data races.
func TestConcurrentDuplicateRequests(t *testing.T) {
	runner := experiment.NewRunner(experiment.Config{Seed: 1})
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64, Runner: runner})

	const n = 100
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids = make(map[string]int)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, v, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
			if status != http.StatusAccepted && status != http.StatusOK {
				t.Errorf("submit: HTTP %d", status)
				return
			}
			mu.Lock()
			ids[v.ID]++
			mu.Unlock()
		}()
	}
	wg.Wait()

	if len(ids) != 1 {
		t.Fatalf("100 identical POSTs created %d jobs: %v", len(ids), ids)
	}
	var id string
	for k := range ids {
		id = k
	}
	final := waitJob(t, ts.URL, id)
	if final.State != JobDone {
		t.Fatalf("job finished %s (%q)", final.State, final.Error)
	}

	// Exactly one simulation ran.
	if st := runner.Stats(); st.Executions != 1 {
		t.Errorf("runner executed %d simulations, want 1 (stats %+v)", st.Executions, st)
	}

	// All 100 clients read back the identical result.
	want, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := getJob(t, ts.URL, id)
		got, err := json.Marshal(v.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("result %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	// The advertised hit ratio reflects 99 dedups against 1 execution.
	m := metricsSnapshot(t, ts.URL)
	if ratio := m["cache_hit_ratio"].(float64); ratio < 0.99 {
		t.Errorf("cache_hit_ratio %v, want >= 0.99", ratio)
	}
	if hits := m["cache_hits"].(float64); hits < float64(n-1) {
		t.Errorf("cache_hits %v, want >= %d", hits, n-1)
	}
	if misses := m["cache_misses"].(float64); misses != 1 {
		t.Errorf("cache_misses %v, want 1", misses)
	}
}

// TestSharedRunnerAcrossJobs checks that distinct jobs whose grids
// overlap reuse the runner's memoized outcomes: a campaign covering a
// point already simulated costs no second simulation of that point.
func TestSharedRunnerAcrossJobs(t *testing.T) {
	runner := experiment.NewRunner(experiment.Config{Seed: 1})
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16, Runner: runner})

	// One plain run...
	_, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	if v := waitJob(t, ts.URL, sub.ID); v.State != JobDone {
		t.Fatalf("run finished %s", v.State)
	}
	execsAfterRun := runner.Stats().Executions

	// ...then the identical configuration again (different job key is
	// impossible here; submit dedups, so force a second runner call by
	// going through a campaign that contains only new geometry).
	status, camp, _ := postJSON(t, ts.URL+"/v1/campaigns",
		`{"workload":"TRFD_4","systems":["Base"],"sizes_kb":[16],"scale":2,"seed":1}`)
	if status != http.StatusAccepted {
		t.Fatalf("campaign submit: HTTP %d", status)
	}
	if v := waitJob(t, ts.URL, camp.ID); v.State != JobDone {
		t.Fatalf("campaign finished %s (%q)", v.State, v.Error)
	}
	execsAfterCampaign := runner.Stats().Executions
	if execsAfterCampaign <= execsAfterRun {
		t.Errorf("campaign executed nothing new (execs %d -> %d)", execsAfterRun, execsAfterCampaign)
	}

	// Re-running the same campaign under a fresh server sharing the
	// runner is answered entirely from the memo cache.
	_, ts2 := newTestServer(t, Options{Workers: 2, QueueDepth: 16, Runner: runner})
	_, camp2, _ := postJSON(t, ts2.URL+"/v1/campaigns",
		`{"workload":"TRFD_4","systems":["Base"],"sizes_kb":[16],"scale":2,"seed":1}`)
	if v := waitJob(t, ts2.URL, camp2.ID); v.State != JobDone {
		t.Fatalf("repeat campaign finished %s (%q)", v.State, v.Error)
	}
	if execs := runner.Stats().Executions; execs != execsAfterCampaign {
		t.Errorf("repeat campaign re-executed: execs %d -> %d", execsAfterCampaign, execs)
	}
}
