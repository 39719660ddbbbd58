package experiment

import (
	"fmt"
	"strings"
	"testing"
)

func TestAblationsListed(t *testing.T) {
	abls := Ablations()
	if len(abls) != 7 {
		t.Fatalf("Ablations() = %d studies, want 7", len(abls))
	}
	for _, e := range abls {
		if e.ID == "" || e.Render == nil {
			t.Errorf("incomplete ablation %+v", e)
		}
	}
	if _, err := Find("update-set"); err != nil {
		t.Errorf("Find(update-set): %v", err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("Find accepted junk")
	}
}

// TestAblationUpdateSetMonotone: enabling update on more of the shared
// variable set must never increase coherence misses.
func TestAblationUpdateSetMonotone(t *testing.T) {
	r := testRunner()
	out, err := AblationUpdateSet(r)
	if err != nil {
		t.Fatal(err)
	}
	// Parse the coherence column; it must be non-increasing.
	var last = 1e18
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "|") {
			continue
		}
		fields := strings.Fields(line[strings.Index(line, "|")+1:])
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(fields[1], &v); err != nil {
			continue
		}
		if v > last+1e-9 {
			t.Errorf("coherence misses increased along the subset chain: %v after %v\n%s", v, last, out)
		}
		last = v
	}
}
