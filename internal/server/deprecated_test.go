package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestIntraWorkersRejected pins the retired job options: intra_workers
// (the removed intra-run engine) and stream (core.Run picks its
// pipeline from the run alone) are unknown fields, so the strict
// decoder answers 400 bad_request on both submitting resources and
// names the field.
func TestIntraWorkersRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, c := range []struct{ path, field, body string }{
		{"/v1/runs", "intra_workers", `{"workload":"TRFD_4","system":"Base","scale":2,"intra_workers":2}`},
		{"/v1/campaigns", "intra_workers", `{"workload":"TRFD_4","systems":["Base"],"scale":2,"intra_workers":2}`},
		{"/v1/runs", "stream", `{"workload":"TRFD_4","system":"Base","scale":1,"stream":true}`},
		{"/v1/campaigns", "stream", `{"workload":"TRFD_4","systems":["Base"],"scale":1,"stream":true}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: error body: %v", c.path, c.field, err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Errorf("%s %s: HTTP %d code %q, want 400 bad_request", c.path, c.field, resp.StatusCode, eb.Error.Code)
		}
		if !strings.Contains(eb.Error.Message, `unknown field "`+c.field+`"`) {
			t.Errorf("%s %s: message %q does not name the unknown field", c.path, c.field, eb.Error.Message)
		}
	}
}
