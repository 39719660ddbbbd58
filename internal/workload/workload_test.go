package workload

import (
	"reflect"
	"testing"

	"oscachesim/internal/kernel"
	"oscachesim/internal/scenario"
	"oscachesim/internal/trace"
)

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v", names)
	}
	if names[0] != TRFD4 || names[3] != Shell {
		t.Errorf("Names() order = %v", names)
	}
}

func TestParseName(t *testing.T) {
	for _, n := range Names() {
		got, err := ParseName(string(n))
		if err != nil || got != n {
			t.Errorf("ParseName(%q) = %v, %v", n, got, err)
		}
	}
	if _, err := ParseName("nope"); err == nil {
		t.Error("ParseName accepted junk")
	}
}

func TestProfileFor(t *testing.T) {
	for _, n := range Names() {
		p := ProfileFor(n)
		if p.Name != n {
			t.Errorf("ProfileFor(%q).Name = %q", n, p.Name)
		}
		if p.UserRefs <= 0 || len(p.CopySizes) == 0 {
			t.Errorf("ProfileFor(%q) incomplete: %+v", n, p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ProfileFor of unknown name did not panic")
		}
	}()
	ProfileFor("nope")
}

func TestPickSizeCoversMixture(t *testing.T) {
	p := ProfileFor(Shell)
	seen := map[uint64]bool{}
	for i := 0; i <= 100; i++ {
		seen[p.pickSize(float64(i)/100)] = true
	}
	if len(seen) < len(p.CopySizes) {
		t.Errorf("pickSize hit %d of %d size classes", len(seen), len(p.CopySizes))
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(TRFD4, kernel.OptConfig{}, 3, 7)
	b := Build(TRFD4, kernel.OptConfig{}, 3, 7)
	if a.TotalRefs() != b.TotalRefs() {
		t.Fatalf("ref counts differ: %d vs %d", a.TotalRefs(), b.TotalRefs())
	}
	for c := range a.PerCPU {
		if !reflect.DeepEqual(a.PerCPU[c], b.PerCPU[c]) {
			t.Fatalf("cpu %d streams differ", c)
		}
	}
	c := Build(TRFD4, kernel.OptConfig{}, 3, 8)
	if reflect.DeepEqual(a.PerCPU[0], c.PerCPU[0]) {
		t.Error("different seeds produced identical streams")
	}
}

func TestBuildScaleGrows(t *testing.T) {
	small := Build(Shell, kernel.OptConfig{}, 2, 1)
	big := Build(Shell, kernel.OptConfig{}, 8, 1)
	if big.TotalRefs() <= small.TotalRefs() {
		t.Errorf("scale 8 (%d refs) not larger than scale 2 (%d refs)",
			big.TotalRefs(), small.TotalRefs())
	}
}

func TestBuildAllWorkloads(t *testing.T) {
	for _, n := range Names() {
		b := Build(n, kernel.OptConfig{}, 4, 1)
		if len(b.PerCPU) != NumCPUs {
			t.Fatalf("%s: %d CPU streams", n, len(b.PerCPU))
		}
		if b.TotalRefs() == 0 {
			t.Fatalf("%s: empty trace", n)
		}
		if b.Kernel == nil {
			t.Fatalf("%s: no kernel", n)
		}
		// Every stream is stamped with its CPU.
		for c, refs := range b.PerCPU {
			for _, r := range refs[:min(100, len(refs))] {
				if int(r.CPU) != c {
					t.Fatalf("%s: cpu %d stream has ref stamped %d", n, c, r.CPU)
				}
			}
		}
	}
}

func TestBarrierArrivalsMatched(t *testing.T) {
	// Every barrier generation must appear exactly once on every CPU,
	// in the same order — otherwise the simulator deadlocks.
	b := Build(TRFD4, kernel.OptConfig{}, 6, 3)
	var orders [NumCPUs][]uint32
	for c, refs := range b.PerCPU {
		for _, r := range refs {
			if r.Sync == trace.SyncBarrier {
				orders[c] = append(orders[c], r.SyncID)
			}
		}
	}
	for c := 1; c < NumCPUs; c++ {
		if !reflect.DeepEqual(orders[0], orders[c]) {
			t.Fatalf("barrier order differs between cpu0 (%d arrivals) and cpu%d (%d arrivals)",
				len(orders[0]), c, len(orders[c]))
		}
	}
	if len(orders[0]) == 0 {
		t.Error("TRFD_4 emitted no barriers")
	}
}

func TestLockNesting(t *testing.T) {
	// Acquires and releases must balance per CPU (the simulator
	// re-enforces them; unbalanced locks deadlock).
	for _, n := range Names() {
		b := Build(n, kernel.OptConfig{}, 4, 5)
		for c, refs := range b.PerCPU {
			depth := map[uint32]int{}
			for _, r := range refs {
				switch r.Sync {
				case trace.SyncLockAcquire:
					depth[r.SyncID]++
				case trace.SyncLockRelease:
					depth[r.SyncID]--
					if depth[r.SyncID] < 0 {
						t.Fatalf("%s cpu%d: release before acquire (lock %d)", n, c, r.SyncID)
					}
				}
			}
			for id, d := range depth {
				if d != 0 {
					t.Fatalf("%s cpu%d: lock %d left at depth %d", n, c, id, d)
				}
			}
		}
	}
}

func TestWorkloadModeMix(t *testing.T) {
	// Each workload must contain all three execution modes, with the
	// Shell workload the most idle-heavy.
	counts := map[Name]map[trace.Kind]int{}
	for _, n := range Names() {
		b := Build(n, kernel.OptConfig{}, 6, 1)
		m := map[trace.Kind]int{}
		for _, refs := range b.PerCPU {
			for _, r := range refs {
				m[r.Kind]++
			}
		}
		counts[n] = m
		for _, k := range []trace.Kind{trace.KindUser, trace.KindOS, trace.KindIdle} {
			if m[k] == 0 {
				t.Errorf("%s has no %v refs", n, k)
			}
		}
	}
	shellIdle := float64(counts[Shell][trace.KindIdle]) / float64(counts[Shell][trace.KindUser]+counts[Shell][trace.KindOS])
	trfdIdle := float64(counts[TRFD4][trace.KindIdle]) / float64(counts[TRFD4][trace.KindUser]+counts[TRFD4][trace.KindOS])
	if shellIdle <= trfdIdle {
		t.Errorf("Shell idle ratio (%.2f) not above TRFD_4's (%.2f)", shellIdle, trfdIdle)
	}
}

func TestOptConfigChangesTrace(t *testing.T) {
	base := Build(TRFDMake, kernel.OptConfig{}, 4, 1)
	pref := Build(TRFDMake, kernel.OptConfig{BlockPrefetch: true}, 4, 1)
	dma := Build(TRFDMake, kernel.OptConfig{BlockDMA: true}, 4, 1)

	countOp := func(b *Built, op trace.Op) int {
		n := 0
		for _, refs := range b.PerCPU {
			for _, r := range refs {
				if r.Op == op {
					n++
				}
			}
		}
		return n
	}
	if countOp(base, trace.OpPrefetch) != 0 {
		t.Error("base build has prefetches")
	}
	if countOp(pref, trace.OpPrefetch) == 0 {
		t.Error("prefetch build has no prefetches")
	}
	if countOp(dma, trace.OpBlockDMA) == 0 {
		t.Error("DMA build has no DMA refs")
	}
	if countOp(base, trace.OpBlockDMA) != 0 {
		t.Error("base build has DMA refs")
	}
	// DMA builds are much smaller: the copy loops disappear.
	if dma.TotalRefs() >= base.TotalRefs() {
		t.Errorf("DMA trace (%d refs) not smaller than base (%d refs)", dma.TotalRefs(), base.TotalRefs())
	}
}

func TestSourcesReplayable(t *testing.T) {
	b := Build(Shell, kernel.OptConfig{}, 2, 1)
	s1 := b.Sources()
	s2 := b.Sources()
	var r1, r2 [1]trace.Ref
	n1, n2 := s1[0].Read(r1[:]), s2[0].Read(r2[:])
	if n1 != 1 || n2 != 1 || r1 != r2 {
		t.Error("Sources() not independently replayable")
	}
}

// TestEveryRefStampedWithItsCPU pins that every reference of every
// processor's stream carries that processor's id, through every
// in-place block writer: classic workloads under each block scheme,
// and every scenario preset.
func TestEveryRefStampedWithItsCPU(t *testing.T) {
	check := func(what string, b *Built) {
		t.Helper()
		for c, refs := range b.PerCPU {
			for i, r := range refs {
				if int(r.CPU) != c {
					t.Fatalf("%s: cpu %d ref %d stamped %d", what, c, i, r.CPU)
				}
			}
		}
		b.Release()
	}
	opts := []kernel.OptConfig{
		{HotSpotPrefetch: true},
		{BlockPrefetch: true, DeferredCopy: true},
		{BlockDMA: true},
	}
	for _, name := range Names() {
		for _, opt := range opts {
			check(string(name), BuildN(name, opt, 2, 3, 6))
		}
	}
	for _, p := range scenario.PresetNames() {
		spec, err := scenario.Preset(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildSpec(spec, kernel.OptConfig{}, 1, 3, 6)
		if err != nil {
			t.Fatal(err)
		}
		check(p, b)
	}
}
