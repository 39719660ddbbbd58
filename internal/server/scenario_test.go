package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// TestRunScenarioPreset submits a scenario run by preset name and
// checks it completes with the scenario's workload label.
func TestRunScenarioPreset(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"scenario":{"preset":"fs-naive"},"system":"Base","seed":1}`
	status, v, _ := postJSON(t, ts.URL+"/v1/runs", body)
	if status != http.StatusAccepted {
		t.Fatalf("HTTP %d", status)
	}
	done := waitJob(t, ts.URL, v.ID)
	if done.State != JobDone {
		t.Fatalf("job state %s (error %q)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Workload != "scenario:fs-naive" {
		t.Fatalf("result = %+v", done.Result)
	}
}

// TestRunScenarioInlineSpec submits a full inline spec document.
func TestRunScenarioInlineSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"scenario":{"spec":{"name":"inline","phases":[{"rounds":2,"user_refs":500,
		"sharing_degree":2,"shared_frac":0.3,"shared_kb":8}]}},"system":"Base","seed":1}`
	status, v, _ := postJSON(t, ts.URL+"/v1/runs", body)
	if status != http.StatusAccepted {
		t.Fatalf("HTTP %d", status)
	}
	done := waitJob(t, ts.URL, v.ID)
	if done.State != JobDone {
		t.Fatalf("job state %s (error %q)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Workload != "scenario:inline" {
		t.Fatalf("result = %+v", done.Result)
	}
}

// TestRunScenarioRoundsTotal pins a scenario run's rounds_total to the
// rounds its generator makes: the spec's rounds times the scale, with
// a scale of 0 counting as 1.
func TestRunScenarioRoundsTotal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, c := range []struct{ scale, want int }{{0, 2}, {3, 6}} {
		body := fmt.Sprintf(`{"scenario":{"spec":{"name":"rounds","phases":[{"rounds":2,"user_refs":200}]}},
			"system":"Base","seed":1,"scale":%d}`, c.scale)
		status, v, _ := postJSON(t, ts.URL+"/v1/runs", body)
		if status != http.StatusAccepted {
			t.Fatalf("scale %d: HTTP %d", c.scale, status)
		}
		done := waitJob(t, ts.URL, v.ID)
		if done.State != JobDone {
			t.Fatalf("scale %d: job state %s (error %q)", c.scale, done.State, done.Error)
		}
		if got := done.Progress.RoundsTotal; got != c.want {
			t.Errorf("scale %d: rounds_total %d, want %d", c.scale, got, c.want)
		}
		if got := done.Progress.RoundsDone; got != c.want {
			t.Errorf("scale %d: rounds_done %d, want %d", c.scale, got, c.want)
		}
	}
}

// TestRunScenarioRejections pins the 400 surface of the scenario
// field: conflicts, unknown presets, field violations with their
// dotted paths, and the preset hint on unknown workloads.
func TestRunScenarioRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, body, want string
	}{
		{"both workload and scenario",
			`{"workload":"TRFD_4","scenario":{"preset":"fs-naive"},"system":"Base"}`,
			"not both"},
		{"neither preset nor spec",
			`{"scenario":{},"system":"Base"}`,
			"presets"},
		{"both preset and spec",
			`{"scenario":{"preset":"fs-naive","spec":{"name":"x","phases":[{"rounds":1}]}},"system":"Base"}`,
			"exactly one"},
		{"unknown preset",
			`{"scenario":{"preset":"nope"},"system":"Base"}`,
			"fs-naive"},
		{"field violation names the path",
			`{"scenario":{"spec":{"name":"x","phases":[{"rounds":0}]}},"system":"Base"}`,
			"phases[0].rounds"},
		{"unknown spec field",
			`{"scenario":{"spec":{"name":"x","phases":[{"rounds":1}],"wat":1}},"system":"Base"}`,
			"wat"},
		{"unknown workload lists presets",
			`{"workload":"nope","system":"Base"}`,
			"presets"},
		{"rounds x scale bound",
			fmt.Sprintf(`{"scenario":{"spec":{"name":"x","phases":[{"rounds":%d}]}},"system":"Base","scale":%d}`,
				1000, 100),
			"exceeding the maximum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			var eb ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if eb.Error.Code != "bad_request" {
				t.Fatalf("error code %q", eb.Error.Code)
			}
			if !strings.Contains(eb.Error.Message, tc.want) {
				t.Fatalf("error %q does not mention %q", eb.Error.Message, tc.want)
			}
		})
	}
}

// TestRunScenarioDedup proves the scenario hash reaches the server's
// dedup index: two identical scenario submissions share one job, and a
// different sharing degree does not.
func TestRunScenarioDedup(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"scenario":{"preset":"sharing"},"system":"Base","seed":1}`
	s1, v1, _ := postJSON(t, ts.URL+"/v1/runs", body)
	if s1 != http.StatusAccepted {
		t.Fatalf("first POST: HTTP %d", s1)
	}
	s2, v2, _ := postJSON(t, ts.URL+"/v1/runs", body)
	if s2 != http.StatusOK {
		t.Fatalf("identical POST: HTTP %d, want 200 (deduplicated)", s2)
	}
	if v2.ID != v1.ID {
		t.Fatalf("identical scenario got a new job: %s vs %s", v2.ID, v1.ID)
	}
	// Equal spec content submitted inline dedupes onto the preset job
	// too: the key is the spec hash, not the request shape.
	spec := `{"scenario":{"spec":{"name":"sharing","phases":[{"name":"share","rounds":12,
		"user_refs":4000,"working_set_kb":8,"shared_kb":16,"sharing_degree":4,
		"shared_frac":0.35,"shared_write_frac":0.30,"barrier_every":2}]}},"system":"Base","seed":1}`
	s3, v3, _ := postJSON(t, ts.URL+"/v1/runs", spec)
	if s3 != http.StatusOK || v3.ID != v1.ID {
		t.Fatalf("inline equal spec not deduplicated: HTTP %d, job %s vs %s", s3, v3.ID, v1.ID)
	}
	waitJob(t, ts.URL, v1.ID)
}

// TestSweepSharers pins the former sharing-degree sweep body, posted
// to /v1/campaigns with a 16-CPU directory machine: it becomes a
// campaign whose cells match core.Run at each degree.
func TestSweepSharers(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	spec, err := scenario.Preset("sharing")
	if err != nil {
		t.Fatal(err)
	}
	p := sim.DefaultParams()
	p.NumCPUs, p.Coherence = 16, sim.CoherenceDirectory
	var want []core.RunConfig
	for _, d := range []int{1, 2, 4, 8, 16} {
		machine := p
		ds := spec.WithSharingDegree(d)
		want = append(want, core.RunConfig{
			Workload: workload.SpecWorkloadName(ds), Scenario: ds,
			System: core.Base, Scale: 1, Seed: 1, Machine: &machine,
		})
	}
	body := `{"scenario":{"preset":"sharing"},"systems":["Base"],"sharers":[1,2,4,8,16],
		"machine":{"num_cpus":16,"coherence":"directory"},"scale":1,"seed":1}`
	checkSweepCampaign(t, ts.URL, body, want)
}

// TestSweepSharersRejections pins validation of former sweep bodies
// posted to /v1/campaigns: the campaign decoder rejects them with 400 and,
// where one field is at fault, its dotted path.
func TestSweepSharersRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, body, want, field string
	}{
		{"sharers without scenario",
			`{"workload":"TRFD_4","systems":["Base"],"sharers":[1,2]}`,
			"pass a scenario", "sharers"},
		{"degree past machine width",
			`{"scenario":{"preset":"sharing"},"systems":["Base"],"sharers":[8]}`,
			"outside [1, 4]", "sharers[0]"},
		{"workload and scenario",
			`{"workload":"TRFD_4","scenario":{"preset":"sharing"},"systems":["Base"],"sharers":[1]}`,
			"not both", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			var eb ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(eb.Error.Message, tc.want) {
				t.Fatalf("error %q does not mention %q", eb.Error.Message, tc.want)
			}
			if eb.Error.Field != tc.field {
				t.Fatalf("error field %q, want %q", eb.Error.Field, tc.field)
			}
		})
	}
}

// TestWorkloadsEndpoint checks GET /v1/workloads lists the four
// profiles and every scenario preset, each with a description.
func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var list WorkloadList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	byName := map[string]WorkloadInfo{}
	for _, w := range list.Workloads {
		byName[w.Name] = w
		if w.Description == "" {
			t.Errorf("workload %q has no description", w.Name)
		}
	}
	for _, name := range []string{"TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"} {
		if byName[name].Kind != "profile" {
			t.Errorf("%q kind %q, want profile", name, byName[name].Kind)
		}
	}
	for _, name := range []string{"fs-naive", "fs-padded", "fs-chunked", "sharing", "os-mix"} {
		if byName[name].Kind != "scenario_preset" {
			t.Errorf("%q kind %q, want scenario_preset", name, byName[name].Kind)
		}
	}
}
