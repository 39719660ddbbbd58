package stats

import (
	"strings"
	"testing"

	"oscachesim/internal/trace"
)

func TestMissClassString(t *testing.T) {
	if MissBlock.String() != "block" || MissCoherence.String() != "coherence" || MissOther.String() != "other" {
		t.Error("miss class names wrong")
	}
	if got := MissClass(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown class = %q", got)
	}
}

func TestCohClassString(t *testing.T) {
	want := map[CohClass]string{
		CohBarrier: "barriers", CohInfreqComm: "infreq-comm",
		CohFreqShared: "freq-shared", CohLock: "locks", CohOther: "other",
	}
	for c, w := range want {
		if got := c.String(); got != w {
			t.Errorf("CohClass %d = %q, want %q", c, got, w)
		}
	}
}

func TestCohClassOf(t *testing.T) {
	cases := map[trace.DataClass]CohClass{
		trace.ClassBarrier:    CohBarrier,
		trace.ClassCounter:    CohInfreqComm,
		trace.ClassFreqShared: CohFreqShared,
		trace.ClassLock:       CohLock,
		trace.ClassGeneric:    CohOther,
		trace.ClassPageTable:  CohOther,
	}
	for dc, want := range cases {
		if got := CohClassOf(dc); got != want {
			t.Errorf("CohClassOf(%v) = %v, want %v", dc, got, want)
		}
	}
}

func TestTimeBreakdown(t *testing.T) {
	a := TimeBreakdown{Exec: 1, IMiss: 2, DRead: 3, Pref: 4, DWrite: 5, Sync: 6}
	if a.Total() != 21 {
		t.Errorf("Total = %d", a.Total())
	}
	b := TimeBreakdown{Exec: 10}
	b.Add(a)
	if b.Exec != 11 || b.Sync != 6 {
		t.Errorf("Add = %+v", b)
	}
}

func TestBlockOverheadTotal(t *testing.T) {
	b := BlockOverhead{ReadStall: 1, WriteStall: 2, DisplStall: 3, InstrExec: 4}
	if b.Total() != 10 {
		t.Errorf("Total = %d", b.Total())
	}
}

func TestCountersHelpers(t *testing.T) {
	var c Counters
	c.Time[trace.KindUser] = TimeBreakdown{Exec: 100}
	c.Time[trace.KindOS] = TimeBreakdown{Exec: 50, DRead: 50}
	c.Time[trace.KindIdle] = TimeBreakdown{Exec: 10}
	if c.TotalTime() != 210 {
		t.Errorf("TotalTime = %d", c.TotalTime())
	}
	if c.OSTime() != 100 {
		t.Errorf("OSTime = %d", c.OSTime())
	}
	c.DReads = [3]uint64{100, 200, 0}
	c.DReadMisses = [3]uint64{5, 10, 0}
	if c.TotalDReads() != 300 || c.TotalDReadMisses() != 15 {
		t.Error("read totals wrong")
	}
	if c.OSDReadMisses() != 10 {
		t.Errorf("OSDReadMisses = %d", c.OSDReadMisses())
	}
	if got := c.D1MissRate(); got != 0.05 {
		t.Errorf("D1MissRate = %v", got)
	}
	var empty Counters
	if empty.D1MissRate() != 0 {
		t.Error("D1MissRate on empty counters != 0")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(1, 4); strings.TrimSpace(got) != "25.0" {
		t.Errorf("Pct(1,4) = %q", got)
	}
	if got := Pct(1, 0); strings.TrimSpace(got) != "-" {
		t.Errorf("Pct(1,0) = %q", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != 0.5 {
		t.Error("Ratio(1,2) != 0.5")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio(1,0) != 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "Table X: demo", Columns: []string{"Metric", "A", "B"}}
	tab.AddRow("thing one", "1.0", "2.0")
	tab.AddRow("thing two (long label)", "33.3", "4")
	out := tab.String()
	for _, want := range []string{"Table X: demo", "Metric", "thing one", "33.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}
