package server

import (
	"reflect"
	"strings"
	"testing"
)

// TestIntraWorkersAcceptedAndIgnored pins the deprecation window of the
// intra_workers job option: the strict decoder still accepts it on
// runs, sweeps and campaigns — including values the removed engine
// would have rejected — and it changes nothing about the planned work.
func TestIntraWorkersAcceptedAndIgnored(t *testing.T) {
	const run = `{"workload":"TRFD_4","system":"Base","scale":2,"seed":3`
	want, _, err := decodeRunRequest(strings.NewReader(run + `}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"0", "1", "4", "64", "-1", "1000"} {
		got, _, err := decodeRunRequest(strings.NewReader(run + `,"intra_workers":` + n + `}`))
		if err != nil {
			t.Fatalf("run with intra_workers=%s rejected: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run with intra_workers=%s: config %+v, want %+v", n, got, want)
		}
	}

	const sweep = `{"workload":"Shell","systems":["Base","BCPref"],"sizes_kb":[16,32],"scale":2`
	wantPts, _, err := decodeSweepRequest(strings.NewReader(sweep + `}`))
	if err != nil {
		t.Fatal(err)
	}
	gotPts, _, err := decodeSweepRequest(strings.NewReader(sweep + `,"intra_workers":8}`))
	if err != nil {
		t.Fatalf("sweep with intra_workers rejected: %v", err)
	}
	if !reflect.DeepEqual(gotPts, wantPts) {
		t.Error("intra_workers changed the sweep grid")
	}

	const camp = `{"workload":"TRFD_4","systems":["Base","BCPref"],"cpus":[4,8],"scale":2`
	plan := func(body string) []string {
		t.Helper()
		var cr CampaignRequest
		if err := decodeJSON(strings.NewReader(body), &cr); err != nil {
			t.Fatalf("campaign body rejected: %v", err)
		}
		p, _, err := cr.plan()
		if err != nil {
			t.Fatalf("campaign plan: %v", err)
		}
		return p.UniqueKeys
	}
	if got, want := plan(camp+`,"intra_workers":8}`), plan(camp+`}`); !reflect.DeepEqual(got, want) {
		t.Errorf("intra_workers changed the campaign plan: %v, want %v", got, want)
	}
}
