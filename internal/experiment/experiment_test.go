package experiment

import (
	"context"
	"strings"
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/store"
	"oscachesim/internal/workload"
)

// testRunner uses the documented reduced-scale preset so every test
// (and the golden files) exercises the same configuration.
func testRunner() *Runner {
	return NewRunner(TestConfig())
}

func TestRunnerMemoizes(t *testing.T) {
	r := testRunner()
	a, err := r.Outcome(workload.Shell, core.Base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Outcome(workload.Shell, core.Base)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executions != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 execution and 1 hit", st)
	}
	sameResult(t, a, b)
	// Variant runs are distinct cache entries.
	cfg := r.configFor(workload.Shell, core.Base)
	cfg.DeferredCopy = true
	if _, err := r.OutcomeConfig(r.ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executions != 2 {
		t.Errorf("stats %+v: deferred outcome shares cache entry with plain run", st)
	}
}

// sameResult fails unless two outcomes carry the same result: a
// stored outcome is rebuilt from its record, so it is equal, not
// identical, to the computed one.
func sameResult(t *testing.T, a, b *core.Outcome) {
	t.Helper()
	if a.Counters != b.Counters || a.Refs != b.Refs || a.Deferred != b.Deferred {
		t.Errorf("outcomes differ: refs %d vs %d, deferred %+v vs %+v",
			a.Refs, b.Refs, a.Deferred, b.Deferred)
	}
}

// TestRunnerOverReopenedStore pins that the store is the Runner's only
// memo: a second Runner over the reopened durable store renders the
// same text — Table 4's deferred-copy counters included — without a
// single compute call.
func TestRunnerOverReopenedStore(t *testing.T) {
	dir := t.TempDir()
	render := func() (string, CacheStats) {
		st, err := store.Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		r := NewStoreRunner(context.Background(), TestConfig(), st, core.Run)
		var out strings.Builder
		for _, render := range []func(*Runner) (string, error){Table4, Figure2} {
			text, err := render(r)
			if err != nil {
				t.Fatal(err)
			}
			out.WriteString(text)
		}
		return out.String(), r.Stats()
	}
	first, st1 := render()
	second, st2 := render()
	if st1.Executions == 0 || st2.Executions != 0 {
		t.Errorf("executions %d then %d, want some then 0", st1.Executions, st2.Executions)
	}
	if first != second {
		t.Errorf("rendering from the reopened store differs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestConflictAnalysisBypassesStore pins that the conflict-census run,
// whose observer must see a real simulation, goes around the store and
// leaves no record in it.
func TestConflictAnalysisBypassesStore(t *testing.T) {
	st, _ := store.Open("", nil)
	r := NewStoreRunner(context.Background(), TestConfig(), st, core.Run)
	if _, err := ConflictAnalysis(r); err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != 0 {
		t.Errorf("the conflict-census run left %d records in the store", n)
	}
}

func TestAllExperimentsListed(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("All() = %d experiments, want 13", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Render == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
}

func TestFind(t *testing.T) {
	e, err := Find("table3")
	if err != nil || e.ID != "table3" {
		t.Errorf("Find(table3) = %v, %v", e.ID, err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("Find accepted junk")
	}
}

func TestTablesRender(t *testing.T) {
	r := testRunner()
	for _, tc := range []struct {
		name   string
		render func(*Runner) (string, error)
		want   []string
	}{
		{"Table1", Table1, []string{"User Time", "OS Time", "Miss Rate", "TRFD_4", "Shell"}},
		{"Table2", Table2, []string{"Block Op.", "Coherence", "Other"}},
		{"Table3", Table3, []string{"Src lines already cached", "Inside reuses"}},
		{"Table4", Table4, []string{"Small Block Copies", "Read-Only", "Deferred"}},
		{"Table5", Table5, []string{"Barriers", "Locks", "Freq. Shared"}},
	} {
		out, err := tc.render(r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", tc.name, w, out)
			}
		}
	}
}

func TestFiguresRender(t *testing.T) {
	r := testRunner()
	for _, tc := range []struct {
		name   string
		render func(*Runner) (string, error)
		want   []string
	}{
		{"Figure1", Figure1, []string{"Read Stall", "Write Stall", "Instr. Exec."}},
		{"Figure2", Figure2, []string{"Blk_Bypass", "Blk_Dma", "block="}},
		{"Figure3", Figure3, []string{"BCPref", "Aggregate", "paper"}},
		{"Figure4", Figure4, []string{"BCoh_RelUp", "coh="}},
		{"Figure5", Figure5, []string{"hotspot=", "BCPref"}},
		{"UpdateTraffic", UpdateTraffic, []string{"traffic vs invalidate", "pure update"}},
	} {
		out, err := tc.render(r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", tc.name, w, out)
			}
		}
	}
}

func TestSweepFiguresRender(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	r := testRunner()
	for _, tc := range []struct {
		name   string
		render func(*Runner) (string, error)
		want   string
	}{
		{"Figure6", Figure6, "16KB"},
		{"Figure7", Figure7, "64B"},
	} {
		out, err := tc.render(r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s output missing %q", tc.name, tc.want)
		}
	}
}

func TestPaperValuesComplete(t *testing.T) {
	for key, rows := range map[string]map[string][4]float64{
		"table1": PaperTable1, "table2": PaperTable2, "table3": PaperTable3,
		"table4": PaperTable4, "table5": PaperTable5,
	} {
		for row, vals := range rows {
			for i, v := range vals {
				if v < 0 || v > 100 {
					t.Errorf("%s row %q col %d = %v out of range", key, row, i, v)
				}
			}
		}
	}
	// Table rows that are percentages of the same whole must sum to
	// ~100 per workload.
	for i := 0; i < 4; i++ {
		sum := PaperTable2["block"][i] + PaperTable2["coherence"][i] + PaperTable2["other"][i]
		if sum < 99 || sum > 101 {
			t.Errorf("PaperTable2 col %d sums to %v", i, sum)
		}
		sum = 0.0
		for _, row := range []string{"barriers", "infreq", "freq", "locks", "other"} {
			sum += PaperTable5[row][i]
		}
		if sum < 99 || sum > 101 {
			t.Errorf("PaperTable5 col %d sums to %v", i, sum)
		}
	}
}

func TestPaperColOrder(t *testing.T) {
	for i, w := range workload.Names() {
		if paperCol(w) != i {
			t.Errorf("paperCol(%q) = %d, want %d", w, paperCol(w), i)
		}
	}
}
