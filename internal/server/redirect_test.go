package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// goneCase is one retired route and the successor its 404 must name.
type goneCase struct {
	method, path, hint string
}

// checkGone sends each case and requires a 404 with no Location header
// and the uniform error envelope whose message names the successor.
func checkGone(t *testing.T, url string, cases []goneCase) {
	t.Helper()
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, url+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != "" {
			t.Errorf("%s %s: unexpected Location %q (redirects were removed)", tc.method, tc.path, loc)
		}
		var e ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s %s: body not an error envelope: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if e.Error.Code != "not_found" {
			t.Errorf("%s %s: code %q, want not_found", tc.method, tc.path, e.Error.Code)
		}
		if !strings.Contains(e.Error.Message, tc.hint) {
			t.Errorf("%s %s: message %q does not name successor %q", tc.method, tc.path, e.Error.Message, tc.hint)
		}
	}
}

// TestLegacyPathsRemoved pins the end state of the v1 migration: the
// pre-resource paths, redirected with 308 for one release, are gone.
// Each answers 404 with the uniform error envelope whose message names
// the v1 successor, so an old client's failure explains its own fix.
// /healthz is untouched — liveness probes keep working.
func TestLegacyPathsRemoved(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	checkGone(t, ts.URL, []goneCase{
		{"POST", "/v1/run", "POST /v1/runs"},
		{"POST", "/v1/sweep", "POST /v1/campaigns"},
		{"GET", "/v1/jobs/j-000001", "GET /v1/runs/{id}"},
		{"GET", "/v1/jobs/j-000001/stream", "GET /v1/runs/{id}/stream"},
		{"GET", "/metrics", "GET /v1/metrics"},
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: status %d, want 200", resp.StatusCode)
	}
}

// TestSweepAliasRedirects pins the end of the retired sweep resource's
// one-release 308 window: each /v1/sweeps route no longer redirects but
// answers 404 with a hint naming its /v1/campaigns counterpart.
func TestSweepAliasRedirects(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	checkGone(t, ts.URL, []goneCase{
		{"POST", "/v1/sweeps", "POST /v1/campaigns"},
		{"GET", "/v1/sweeps?state=done&limit=2", "GET /v1/campaigns"},
		{"GET", "/v1/sweeps/j-000001", "GET /v1/campaigns/{id}"},
		{"GET", "/v1/sweeps/j-000001/stream", "GET /v1/campaigns/{id}/stream"},
		{"DELETE", "/v1/sweeps/j-000001", "DELETE /v1/campaigns/{id}"},
	})
}

// TestErrorEnvelopeUniform pins the envelope shape across every
// client-facing error class the API produces: 400 (bad request),
// 404 (unknown job), 429 (queue full) and 503 (draining) all answer
// {"error": {"code", "message"}}.
func TestErrorEnvelopeUniform(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	srv, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		execute:    blockingHook(started, release),
	})

	decode := func(resp *http.Response) ErrorDetail {
		t.Helper()
		defer resp.Body.Close()
		var e ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error body not an envelope: %v", err)
		}
		if e.Error.Code == "" || e.Error.Message == "" {
			t.Fatalf("envelope incomplete: %+v", e)
		}
		return e.Error
	}

	// 400: invalid body.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}
	if d := decode(resp); d.Code != "bad_request" {
		t.Errorf("400 code %q, want bad_request", d.Code)
	}

	// 404: unknown job.
	resp, err = http.Get(ts.URL + "/v1/runs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if d := decode(resp); d.Code != "not_found" {
		t.Errorf("404 code %q, want not_found", d.Code)
	}

	// 429: worker busy, queue full.
	postJSON(t, ts.URL+"/v1/runs", runBody(1))
	<-started
	postJSON(t, ts.URL+"/v1/runs", runBody(2))
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(runBody(3)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if d := decode(resp); d.Code != "queue_full" {
		t.Errorf("429 code %q, want queue_full", d.Code)
	}
	close(release)

	// 503: draining. Drain waits for the running job, which release
	// just unblocked.
	drainServer(t, srv)
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(runBody(4)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}
	if d := decode(resp); d.Code != "draining" {
		t.Errorf("503 code %q, want draining", d.Code)
	}
}
