package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
)

// figure3Body is the acceptance grid: the paper's Figure 3 comparison
// at 4 and 16 CPUs under both coherence protocols, with the
// machine-readable snoop-vs-directory diff requested up front.
func figure3Body() string {
	return fmt.Sprintf(`{
		"workload": "TRFD_4",
		"systems": ["Base", "BCPref"],
		"cpus": [4, 16],
		"coherence": ["snoop", "directory"],
		"scale": %d,
		"seed": 1,
		"diff": {"axis": "coherence", "from": "snoop", "to": "directory"}
	}`, testScale)
}

// TestCampaignLifecycle is the acceptance path: one POST reproduces the
// Figure 3 grid, the job completes with one result per cell, every
// unique configuration simulated exactly once, and the report renders
// both the comparison table and the axis diff.
func TestCampaignLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 8})
	status, sub, _ := postJSON(t, ts.URL+"/v1/campaigns", figure3Body())
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", status)
	}
	if sub.Kind != "campaign" || !strings.HasPrefix(sub.Key, "campaign:") {
		t.Fatalf("bad submit view: kind %q key %q", sub.Kind, sub.Key)
	}
	v := waitJob(t, ts.URL, sub.ID)
	if v.State != JobDone {
		t.Fatalf("campaign finished %s (error %q), want done", v.State, v.Error)
	}
	// A campaign's progress is its grid aggregate: the per-run fields
	// stay zero, queued and done alike.
	for _, pv := range []*ProgressView{sub.Progress, v.Progress} {
		if pv == nil || pv.RoundsDone != 0 || pv.RoundsTotal != 0 || pv.Refs != 0 || pv.TotalRefs != 0 {
			t.Errorf("campaign progress %+v carries per-run fields", pv)
		}
	}
	c := v.Campaign
	if c == nil {
		t.Fatal("done campaign has no result")
	}
	if c.CellsTotal != 8 || c.CellsDone != 8 || c.UniqueCells != 8 {
		t.Fatalf("cells %d/%d unique %d, want 8/8 unique 8", c.CellsDone, c.CellsTotal, c.UniqueCells)
	}
	for i, cell := range c.Cells {
		if cell.Result == nil || cell.Result.OSCycles == 0 {
			t.Errorf("cell %d has empty result", i)
		}
		for _, axis := range []string{"workload", "cpus", "coherence", "system"} {
			if cell.Coords[axis] == "" {
				t.Errorf("cell %d missing %s coordinate: %v", i, axis, cell.Coords)
			}
		}
	}
	if v.Progress == nil || v.Progress.CellsDone != 8 || v.Progress.Fraction != 1 {
		t.Errorf("finished progress %+v, want 8 cells at fraction 1", v.Progress)
	}
	// Exactly-once: 8 unique cells cost 8 simulations, none repeated.
	if got := srv.runner.Stats().Executions; got != 8 {
		t.Errorf("runner executed %d configs, want 8", got)
	}

	// The JSON report: table plus diff rows, one per (cpus, system)
	// pair per metric.
	rep := getCampaignReport(t, ts.URL, sub.ID, "")
	if rep.RowAxis != "system" || rep.CellsDone != 8 {
		t.Errorf("report row_axis %q cells %d", rep.RowAxis, rep.CellsDone)
	}
	for _, want := range []string{"Base", "BCPref", "total="} {
		if !strings.Contains(rep.Table, want) {
			t.Errorf("report table missing %q:\n%s", want, rep.Table)
		}
	}
	if rep.Diff == nil {
		t.Fatal("report has no diff despite the request asking for one")
	}
	if rep.Diff.Axis != "coherence" || rep.Diff.From != "snoop" || rep.Diff.To != "directory" {
		t.Errorf("diff identity %+v", rep.Diff)
	}
	wantRows := 4 * len(campaign.DiffMetrics) // (2 cpus × 2 systems) pairs
	if len(rep.Diff.Rows) != wantRows {
		t.Errorf("%d diff rows, want %d", len(rep.Diff.Rows), wantRows)
	}
	for _, row := range rep.Diff.Rows {
		if row.Coords["coherence"] != "" {
			t.Errorf("diff row still carries the diffed axis: %v", row.Coords)
		}
	}

	// Per-call overrides re-render without simulating: row_axis=cpus
	// groups by CPU count, a diff override swaps the compared axis.
	rep = getCampaignReport(t, ts.URL, sub.ID, "?row_axis=cpus&diff_axis=system&diff_from=Base&diff_to=BCPref")
	if rep.RowAxis != "cpus" || rep.Diff.Axis != "system" {
		t.Errorf("override report row %q diff %+v", rep.RowAxis, rep.Diff)
	}
	if got := srv.runner.Stats().Executions; got != 8 {
		t.Errorf("re-rendering ran %d simulations, want still 8", got)
	}

	// format=text serves the table and diff as plain text.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + sub.ID + "/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text report content type %q", ct)
	}
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), "diff coherence: snoop -> directory") {
		t.Errorf("text report missing diff header:\n%s", text)
	}

	// The stream of a finished campaign closes with a result frame
	// carrying the aggregate progress.
	frames := readStream(t, ts.URL+"/v1/campaigns/"+sub.ID+"/stream")
	last := frames[len(frames)-1]
	if last.Type != "result" || last.Job.Campaign == nil {
		t.Errorf("final stream frame %+v, want a campaign result", last)
	}
	if last.Job.Progress.CellsTotal != 8 {
		t.Errorf("stream progress %+v", last.Job.Progress)
	}

	m := metricsSnapshot(t, ts.URL)
	if got := m["campaign_cells_total"].(float64); got != 8 {
		t.Errorf("campaign_cells_total %v, want 8", got)
	}
	if got := m["campaign_cells_deduped_total"].(float64); got != 0 {
		t.Errorf("campaign_cells_deduped_total %v, want 0", got)
	}
}

// getCampaignReport fetches and decodes one campaign report.
func getCampaignReport(t *testing.T, base, id, query string) *CampaignReport {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/report" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("report: HTTP %d: %s", resp.StatusCode, body)
	}
	var rep CampaignReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	return &rep
}

// readStream consumes an NDJSON stream to EOF.
func readStream(t *testing.T, url string) []StreamFrame {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []StreamFrame
	dec := json.NewDecoder(resp.Body)
	for {
		var f StreamFrame
		if err := dec.Decode(&f); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode stream frame: %v", err)
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		t.Fatal("empty stream")
	}
	return frames
}

// TestCampaignDedupCells pins the dedup contract end to end: a grid
// whose axes repeat a value plans the duplicates once, the runner sees
// each unique configuration exactly once, and the duplicate cells are
// credited from the shared simulation.
func TestCampaignDedupCells(t *testing.T) {
	var calls atomic.Int32
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		execute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			calls.Add(1)
			return &core.Outcome{Config: cfg}, nil
		},
	})
	body := fmt.Sprintf(`{
		"workload": "TRFD_4",
		"systems": ["Base", "BCPref"],
		"cpus": [4, 4, 16],
		"scale": %d,
		"seed": 1
	}`, testScale)
	status, sub, _ := postJSON(t, ts.URL+"/v1/campaigns", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	v := waitJob(t, ts.URL, sub.ID)
	if v.State != JobDone {
		t.Fatalf("campaign finished %s (error %q)", v.State, v.Error)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("execute seam called %d times, want 4 (cpus [4,4,16] dedupes to [4,16])", got)
	}
	c := v.Campaign
	if c == nil || c.CellsDone != 6 || c.UniqueCells != 4 {
		t.Fatalf("campaign result %+v, want 6 cells from 4 unique", c)
	}
	m := metricsSnapshot(t, ts.URL)
	if got := m["campaign_cells_total"].(float64); got != 6 {
		t.Errorf("campaign_cells_total %v, want 6", got)
	}
	if got := m["campaign_cells_deduped_total"].(float64); got != 2 {
		t.Errorf("campaign_cells_deduped_total %v, want 2", got)
	}

	// An identical second POST dedupes onto the finished job: same
	// content-addressed key, no new simulations.
	status, again, _ := postJSON(t, ts.URL+"/v1/campaigns", body)
	if status != http.StatusOK || !again.Deduped || again.ID != sub.ID {
		t.Errorf("resubmit: HTTP %d deduped %v id %s, want 200 dedup onto %s",
			status, again.Deduped, again.ID, sub.ID)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("resubmit ran %d executions, want still 4", got)
	}
}

// TestCampaignCancelMidGrid cancels a running campaign after its first
// cell completes: DELETE answers 202, the job winds down as canceled,
// and the partial cells stay reported.
func TestCampaignCancelMidGrid(t *testing.T) {
	started := make(chan int, 8)
	var calls atomic.Int32
	srv, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		execute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			n := int(calls.Add(1))
			started <- n
			if n != 2 {
				return &core.Outcome{Config: cfg}, nil
			}
			<-ctx.Done()
			return nil, context.Cause(ctx)
		},
	})
	body := fmt.Sprintf(`{
		"workload": "TRFD_4",
		"systems": ["Base", "Blk_Pref"],
		"cpus": [4, 16],
		"scale": %d,
		"seed": 1
	}`, testScale)
	status, sub, _ := postJSON(t, ts.URL+"/v1/campaigns", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	// Report before any results: 409 not_ready.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + sub.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("early report: HTTP %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	<-started // first cell ran to completion
	<-started // second is blocked: the campaign is mid-grid

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+sub.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running campaign: HTTP %d, want 202", resp.StatusCode)
	}

	v := waitJob(t, ts.URL, sub.ID)
	if v.State != JobCanceled {
		t.Fatalf("campaign wound down %s (error %q), want canceled", v.State, v.Error)
	}
	if v.Error != "canceled by client" {
		t.Errorf("error %q", v.Error)
	}
	c := v.Campaign
	if c == nil {
		t.Fatal("canceled campaign dropped its partial cells")
	}
	if c.CellsDone != 1 || c.CellsTotal != 4 {
		t.Errorf("partial cells %d/%d, want 1/4", c.CellsDone, c.CellsTotal)
	}
	// The partial report still renders.
	rep := getCampaignReport(t, ts.URL, sub.ID, "")
	if rep.State != JobCanceled || rep.CellsDone != 1 {
		t.Errorf("partial report state %s cells %d", rep.State, rep.CellsDone)
	}

	// A run job computes a cell the cancel left missing. The canceled
	// campaign keeps the cells it had: its result is fixed at the
	// cancel, not whatever the store holds later.
	job, _ := srv.lookup(sub.ID)
	var missing campaign.Cell
	for _, cell := range job.Plan.Cells {
		if cell.Key != c.Cells[0].Key {
			missing = cell
			break
		}
	}
	runReq := fmt.Sprintf(`{"workload":"TRFD_4","system":%q,"scale":%d,"seed":1,"machine":{"num_cpus":%s}}`,
		missing.Coords["system"], testScale, missing.Coords["cpus"])
	_, rsub, _ := postJSON(t, ts.URL+"/v1/runs", runReq)
	if rv := waitJob(t, ts.URL, rsub.ID); rv.State != JobDone || rv.Key != missing.Key {
		t.Fatalf("run of the missing cell: state %s, key %.12s, want done under the cell's key %.12s",
			rv.State, rv.Key, missing.Key)
	}
	if v := getJob(t, ts.URL, sub.ID); v.Campaign == nil || v.Campaign.CellsDone != 1 {
		t.Errorf("canceled campaign after its missing cell was computed: %+v, want cells_done 1", v.Campaign)
	}
	if rep := getCampaignReport(t, ts.URL, sub.ID, ""); rep.CellsDone != 1 || len(rep.Cells) != 1 {
		t.Errorf("canceled campaign's report after its missing cell was computed: cells_done %d, %d grid cells, want 1",
			rep.CellsDone, len(rep.Cells))
	}
}

// TestCampaignCancelQueued cancels a campaign still in the queue: the
// DELETE answers 200 immediately and frees the dedup key.
func TestCampaignCancelQueued(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		execute:    blockingHook(started, release),
	})
	// A run occupies the single worker; the campaign sits queued.
	postJSON(t, ts.URL+"/v1/runs", runBody(1))
	<-started
	status, sub, _ := postJSON(t, ts.URL+"/v1/campaigns", figure3Body())
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || v.State != JobCanceled {
		t.Fatalf("DELETE queued campaign: HTTP %d state %s, want 200 canceled", resp.StatusCode, v.State)
	}

	// The key is free again: a resubmit is a fresh job, not a dedup.
	status, again, _ := postJSON(t, ts.URL+"/v1/campaigns", figure3Body())
	if status != http.StatusAccepted || again.Deduped || again.ID == sub.ID {
		t.Errorf("resubmit after cancel: HTTP %d deduped %v", status, again.Deduped)
	}
	// Cancel it too so cleanup's drain doesn't wait on the seam.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+again.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	close(release)
}

// TestCampaignValidation pins the 400 contract: every rejection names
// the offending field with its dotted path.
func TestCampaignValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	var cpus []string
	for i := 1; i <= 33; i++ {
		cpus = append(cpus, fmt.Sprintf("%d", i))
	}
	allSystems := `["Base","Blk_Pref","Blk_Bypass","Blk_ByPref","Blk_Dma","BCoh_Reloc","BCoh_RelUp","BCPref"]`

	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"no systems", `{"workload":"TRFD_4"}`, "systems"},
		{"unknown system", `{"workload":"TRFD_4","systems":["wat"]}`, "systems[0]"},
		{"unknown coherence", `{"workload":"TRFD_4","systems":["Base"],"coherence":["moesi"]}`, "coherence[0]"},
		{"both workload sources", `{"workload":"TRFD_4","workloads":["ARC2D+Fsck"],"systems":["Base"]}`, "workloads"},
		{"unknown workload axis value", `{"workloads":["nope"],"systems":["Base"]}`, "workloads[0]"},
		{"grid too large", fmt.Sprintf(`{"workload":"TRFD_4","systems":%s,"cpus":[%s]}`,
			allSystems, strings.Join(cpus, ",")), "grid"},
		{"undeclared row axis", `{"workload":"TRFD_4","systems":["Base"],"row_axis":"cpus"}`, "row_axis"},
		{"diff on undeclared axis", `{"workload":"TRFD_4","systems":["Base"],"diff":{"axis":"coherence","from":"snoop","to":"directory"}}`, "diff.axis"},
		{"diff from not a value", `{"workload":"TRFD_4","systems":["Base","BCPref"],"diff":{"axis":"system","from":"Blk_Dma","to":"BCPref"}}`, "diff.from"},
		{"sharers without scenario", `{"workload":"TRFD_4","systems":["Base"],"sharers":[2]}`, "sharers"},
		{"bad machine", `{"workload":"TRFD_4","systems":["Base"],"machine":{"l1d_line":3000}}`, "machine.l1d_line"},
		{"bad scale", `{"workload":"TRFD_4","systems":["Base"],"scale":-1}`, "scale"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decode error body: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if e.Error.Field != tc.field {
			t.Errorf("%s: error field %q, want %q (message %q)", tc.name, e.Error.Field, tc.field, e.Error.Message)
		}
	}
}

// TestCampaignKindIsolation checks the per-kind resource boundary: a
// run's id is not visible under /v1/campaigns and vice versa.
func TestCampaignKindIsolation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	_, run, _ := postJSON(t, ts.URL+"/v1/runs", runBody(1))
	waitJob(t, ts.URL, run.ID)

	for _, url := range []string{
		ts.URL + "/v1/campaigns/" + run.ID,
		ts.URL + "/v1/campaigns/" + run.ID + "/stream",
		ts.URL + "/v1/campaigns/" + run.ID + "/report",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404 for a run id", url, resp.StatusCode)
		}
	}
}

// TestCollectionListings exercises GET /v1/runs pagination and state
// filtering, and the per-kind separation of the two collections.
func TestCollectionListings(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		_, sub, _ := postJSON(t, ts.URL+"/v1/runs", runBody(seed))
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		waitJob(t, ts.URL, id)
	}

	list := getList(t, ts.URL+"/v1/runs?limit=2")
	if len(list.Jobs) != 2 || list.NextCursor == "" {
		t.Fatalf("page 1: %d jobs cursor %q, want 2 jobs and a cursor", len(list.Jobs), list.NextCursor)
	}
	if list.Jobs[0].ID != ids[0] || list.Jobs[1].ID != ids[1] {
		t.Errorf("page 1 order %v, want submission order %v", []string{list.Jobs[0].ID, list.Jobs[1].ID}, ids[:2])
	}
	list = getList(t, ts.URL+"/v1/runs?limit=2&cursor="+list.NextCursor)
	if len(list.Jobs) != 1 || list.NextCursor != "" {
		t.Fatalf("page 2: %d jobs cursor %q, want the final job and no cursor", len(list.Jobs), list.NextCursor)
	}
	if list.Jobs[0].ID != ids[2] {
		t.Errorf("page 2 job %s, want %s", list.Jobs[0].ID, ids[2])
	}

	list = getList(t, ts.URL+"/v1/runs?state=done")
	if len(list.Jobs) != 3 {
		t.Errorf("state=done lists %d jobs, want 3", len(list.Jobs))
	}
	list = getList(t, ts.URL+"/v1/runs?state=failed")
	if len(list.Jobs) != 0 {
		t.Errorf("state=failed lists %d jobs, want 0", len(list.Jobs))
	}
	// Runs do not leak into the campaign collection, and an empty
	// collection still renders a JSON array.
	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"jobs": []`) && !strings.Contains(string(raw), `"jobs":[]`) {
		t.Errorf("GET /v1/campaigns: %s, want an empty jobs array", raw)
	}

	// Bad filters are field-attributed 400s.
	for _, tc := range []struct{ query, field string }{
		{"?state=wat", "state"},
		{"?limit=0", "limit"},
		{"?cursor=nope", "cursor"},
	} {
		resp, err := http.Get(ts.URL + "/v1/runs" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error.Field != tc.field {
			t.Errorf("GET %s: HTTP %d field %q, want 400 on %q", tc.query, resp.StatusCode, e.Error.Field, tc.field)
		}
	}
}

// getList fetches and decodes one collection listing.
func getList(t *testing.T, url string) *JobList {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	var list JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	return &list
}
