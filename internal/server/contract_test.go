package server

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRoutesMatchContract fails when the mux and the committed API
// contract (API.md at the repo root) drift apart: every registered
// route pattern must appear in the document as a `METHOD /path`
// heading, and every documented route must still be registered.
func TestRoutesMatchContract(t *testing.T) {
	data, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatalf("read API.md: %v", err)
	}
	doc := string(data)

	s := New(Options{})
	defer drainServer(t, s)

	registered := map[string]bool{}
	for _, rt := range s.routes() {
		registered[rt.pattern] = true
		if !strings.Contains(doc, "`"+rt.pattern+"`") {
			t.Errorf("route %q is registered but not documented in API.md", rt.pattern)
		}
	}

	// The reverse direction: every `METHOD /path` code span in the
	// contract names a live route.
	for _, line := range strings.Split(doc, "\n") {
		start := strings.Index(line, "`")
		if start < 0 {
			continue
		}
		end := strings.Index(line[start+1:], "`")
		if end < 0 {
			continue
		}
		span := line[start+1 : start+1+end]
		fields := strings.Fields(span)
		if len(fields) != 2 || !strings.HasPrefix(fields[1], "/") {
			continue
		}
		switch fields[0] {
		case "GET", "HEAD", "POST", "PUT", "PATCH", "DELETE":
			if !registered[span] {
				t.Errorf("API.md documents %q but the server does not register it", span)
			}
		}
	}
}

// TestDocsRequestBodiesDecode decodes every `curl … -d '…'` request
// body in README.md and API.md the way its route does: strictly, with
// unknown fields rejected, then through the run or campaign validation
// and the request bounds. A renamed field or an out-of-range value in
// a documented example fails here instead of in a reader's shell.
func TestDocsRequestBodiesDecode(t *testing.T) {
	// The body may span lines; the route is the /v1 path on the curl line.
	curl := regexp.MustCompile(`curl [^\n]*?(/v1/[a-z/]+)[^\n]*? -d '([^']*)'`)
	checked := 0
	for _, doc := range []string{"README.md", "API.md"} {
		data, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range curl.FindAllStringSubmatch(string(data), -1) {
			route, body := m[1], m[2]
			where := doc + ": POST " + route + " " + body
			switch route {
			case "/v1/runs":
				cfg, _, err := decodeRunRequest(strings.NewReader(body))
				if err == nil {
					err = checkBounds(cfg)
				}
				if err != nil {
					t.Errorf("%s: %v", where, err)
				}
			case "/v1/campaigns":
				var cr CampaignRequest
				err := decodeJSON(strings.NewReader(body), &cr)
				if err != nil {
					t.Errorf("%s: %v", where, err)
					break
				}
				p, _, err := cr.plan()
				if err != nil {
					t.Errorf("%s: %v", where, err)
					break
				}
				for _, cfg := range p.Unique {
					if err := checkBounds(cfg); err != nil {
						t.Errorf("%s: %v", where, err)
					}
				}
			default:
				t.Errorf("%s: no request decoder for this route", where)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no documented request bodies found")
	}
}
