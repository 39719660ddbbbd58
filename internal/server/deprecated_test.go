package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestIntraWorkersRejected pins the end of the intra_workers
// deprecation window: the job option of the removed intra-run engine
// is now an unknown field, so the strict decoder answers 400
// bad_request on both submitting resources.
func TestIntraWorkersRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for path, body := range map[string]string{
		"/v1/runs":      `{"workload":"TRFD_4","system":"Base","scale":2,"intra_workers":2}`,
		"/v1/campaigns": `{"workload":"TRFD_4","systems":["Base"],"scale":2,"intra_workers":2}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: error body: %v", path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Errorf("%s: HTTP %d code %q, want 400 bad_request", path, resp.StatusCode, eb.Error.Code)
		}
		if !strings.Contains(eb.Error.Message, `unknown field "intra_workers"`) {
			t.Errorf("%s: message %q does not name the unknown field", path, eb.Error.Message)
		}
	}
}
