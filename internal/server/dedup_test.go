package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"oscachesim/internal/store"
)

// TestConcurrentDuplicateRequests is the acceptance check from the
// issue: at the production shape (-workers 4 -queue 64), 100 concurrent
// identical POSTs must cost exactly one simulation, return 100
// identical results, and leave the cache hit ratio at or above 0.99.
// Run under -race it also exercises the submit/dedup/worker paths for
// data races.
func TestConcurrentDuplicateRequests(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64})

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
	if st := srv.runner.Stats(); st.Executions != 1 {
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

// TestSharedStoreAcrossServers checks that servers sharing one result
// store share its results: a campaign cell one server already
// simulated costs the other no second simulation, and a repeated
// campaign is answered from the store without any.
func TestSharedStoreAcrossServers(t *testing.T) {
	st, _ := store.Open("", nil)
	_, ts1 := newTestServer(t, Options{Workers: 2, QueueDepth: 16, Store: st})
	_, ts2 := newTestServer(t, Options{Workers: 2, QueueDepth: 16, Store: st})
	execs := func(url string) float64 { return metricsSnapshot(t, url)["local_executions"].(float64) }

	// One plain run on the first server...
	_, sub, _ := postJSON(t, ts1.URL+"/v1/runs", runBody(1))
	if v := waitJob(t, ts1.URL, sub.ID); v.State != JobDone {
		t.Fatalf("run finished %s", v.State)
	}

	// ...then, on the second, a campaign whose Base cell is that run:
	// only the BCPref cell simulates.
	campaign := fmt.Sprintf(`{"workload":"TRFD_4","systems":["Base","BCPref"],"scale":%d,"seed":1}`, testScale)
	_, camp, _ := postJSON(t, ts2.URL+"/v1/campaigns", campaign)
	if v := waitJob(t, ts2.URL, camp.ID); v.State != JobDone {
		t.Fatalf("campaign finished %s (%q)", v.State, v.Error)
	}
	m := metricsSnapshot(t, ts2.URL)
	if got := m["local_executions"].(float64); got != 1 {
		t.Errorf("campaign ran %v simulations, want 1 (the Base cell is stored)", got)
	}
	if got := m["store_hits"].(float64); got != 1 {
		t.Errorf("store_hits %v, want 1", got)
	}

	// The same campaign on the first server is answered from the store.
	before := execs(ts1.URL)
	status, again, _ := postJSON(t, ts1.URL+"/v1/campaigns", campaign)
	if status != http.StatusOK || !again.Deduped {
		t.Fatalf("repeat campaign: HTTP %d deduped %v, want 200 from the store", status, again.Deduped)
	}
	if v := waitJob(t, ts1.URL, again.ID); v.State != JobDone {
		t.Fatalf("repeat campaign finished %s (%q)", v.State, v.Error)
	}
	if got := execs(ts1.URL); got != before {
		t.Errorf("repeat campaign re-executed: local_executions %v -> %v", before, got)
	}
}
