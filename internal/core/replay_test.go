package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// TestReplayMatchesRun pins that a captured stream and a generated run
// take the same road: Replay of the per-CPU references workload.BuildN
// generates for cfg, on cfg's machine, reproduces core.Run's counters,
// reference count and processor clocks exactly — on the paper's
// machine, with the selective-update pages, with every page under the
// update protocol, and on the 16-CPU directory machine.
func TestReplayMatchesRun(t *testing.T) {
	dir16 := sim.DefaultParams()
	dir16.NumCPUs = 16
	dir16.Coherence = sim.CoherenceDirectory
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"base", RunConfig{Workload: workload.TRFD4, System: Base, Scale: testScale, Seed: 1}},
		{"bcpref", RunConfig{Workload: workload.Shell, System: BCPref, Scale: testScale, Seed: 2}},
		{"pure-update", RunConfig{Workload: workload.TRFD4, System: BCohReloc, Scale: testScale, Seed: 1, PureUpdate: true}},
		{"dir16", RunConfig{Workload: workload.Shell, System: BlkDma, Scale: 3, Seed: 1, Machine: &dir16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, err := Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			built := workload.BuildN(tc.cfg.Workload, kernelOpt(tc.cfg), tc.cfg.Scale, tc.cfg.Seed, machineParams(tc.cfg).NumCPUs)
			defer built.Release()
			rep, err := Replay(context.Background(), tc.cfg, built.PerCPU)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Counters != run.Counters {
				t.Error("Replay counters differ from Run's")
			}
			if rep.Refs != run.Refs {
				t.Errorf("Replay simulated %d refs, Run %d", rep.Refs, run.Refs)
			}
			if len(rep.CPUTime) != len(run.CPUTime) {
				t.Fatalf("Replay reports %d processor clocks, Run %d", len(rep.CPUTime), len(run.CPUTime))
			}
			for i := range rep.CPUTime {
				if rep.CPUTime[i] != run.CPUTime[i] {
					t.Errorf("cpu%d clock: Replay %d, Run %d", i, rep.CPUTime[i], run.CPUTime[i])
				}
			}
		})
	}
}

// TestReplayRefusesExtraStreams: a stream per processor at most — a
// trace naming a fifth processor cannot run on the 4-CPU machine.
func TestReplayRefusesExtraStreams(t *testing.T) {
	if _, err := Replay(context.Background(), RunConfig{}, make([][]trace.Ref, 5)); err == nil {
		t.Fatal("Replay accepted 5 streams for a 4-processor machine")
	}
}

// TestReplayPadsMissingStreams: processors without a stream idle, and
// the outcome still reports every processor's clock.
func TestReplayPadsMissingStreams(t *testing.T) {
	refs := []trace.Ref{{Addr: 0x1000, Op: trace.OpRead, Kind: trace.KindOS}}
	o, err := Replay(context.Background(), RunConfig{}, [][]trace.Ref{refs})
	if err != nil {
		t.Fatal(err)
	}
	if o.Refs != 1 || len(o.CPUTime) != sim.DefaultParams().NumCPUs {
		t.Errorf("got %d refs and %d clocks, want 1 and %d", o.Refs, len(o.CPUTime), sim.DefaultParams().NumCPUs)
	}
}

// replayRefError replays one stream of refs on cpu 1 of the paper's
// machine and returns the *RefError it must fail with.
func replayRefError(t *testing.T, refs []trace.Ref) *RefError {
	t.Helper()
	_, err := Replay(context.Background(), RunConfig{}, [][]trace.Ref{nil, refs})
	var re *RefError
	if !errors.As(err, &re) {
		t.Fatalf("Replay error = %v, want a *RefError", err)
	}
	return re
}

// TestReplayRejectsOversizedDMA: a block DMA's cost is linear in its
// length, so one reference longer than any generated block (a 2^31
// byte transfer once ran about 70 s under the oracle) is refused before
// the simulation starts; the largest generated block still runs.
func TestReplayRejectsOversizedDMA(t *testing.T) {
	dma := trace.Ref{Addr: 0x10_0000, Aux: 0x20_0000, Op: trace.OpBlockDMA, Kind: trace.KindOS, Block: 1}
	dma.Len = scenario.MaxBlockBytes
	if _, err := Replay(context.Background(), RunConfig{System: BlkDma}, [][]trace.Ref{{dma}}); err != nil {
		t.Fatalf("the largest generated block was refused: %v", err)
	}
	dma.Len = 1 << 31
	start := time.Now()
	re := replayRefError(t, []trace.Ref{{Op: trace.OpRead}, dma})
	if re.CPU != 1 || re.Index != 1 || re.Field != "Len" || re.Value != 1<<31 {
		t.Errorf("error %+v, want cpu 1, ref 1, field Len = 2^31", *re)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("refusal took %s", d)
	}
}

// TestReplayRejectsWrappingDMA: a block operand ending at the top of
// the address space would wrap the simulator's line walk around it.
func TestReplayRejectsWrappingDMA(t *testing.T) {
	top := uint64(math.MaxUint64 - 40)
	re := replayRefError(t, []trace.Ref{{Addr: top, Op: trace.OpBlockDMA, Len: 32}})
	if re.Field != "Addr" || re.Value != top {
		t.Errorf("error %+v, want field Addr = %#x", *re, top)
	}
	re = replayRefError(t, []trace.Ref{{Addr: 0x1000, Aux: top, Op: trace.OpBlockDMA, Len: 32}})
	if re.Field != "Aux" || re.Value != top {
		t.Errorf("error %+v, want field Aux = %#x", *re, top)
	}
}

// TestReplayRejectsOversizedBarrier: a barrier waiting for more
// processors than the machine has can only deadlock, so it is refused
// up front, naming the participant count; one the machine can fill
// runs.
func TestReplayRejectsOversizedBarrier(t *testing.T) {
	n := sim.DefaultParams().NumCPUs
	bar := trace.Ref{Addr: 0x200, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncBarrier, SyncID: 3, Len: uint32(n)}
	all := make([][]trace.Ref, n)
	for i := range all {
		all[i] = []trace.Ref{bar}
	}
	if _, err := Replay(context.Background(), RunConfig{}, all); err != nil {
		t.Fatalf("a full-machine barrier failed: %v", err)
	}
	bar.Len = uint32(n + 1)
	re := replayRefError(t, []trace.Ref{bar})
	if re.CPU != 1 || re.Index != 0 || re.Field != "Len" || re.Value != uint64(n+1) {
		t.Errorf("error %+v, want cpu 1, ref 0, field Len = %d", *re, n+1)
	}
}

// TestReplayToleratesForeignRelease: a release by a processor that does
// not hold the lock is a plain write, because a trace may start in the
// middle of a critical section.
func TestReplayToleratesForeignRelease(t *testing.T) {
	rel := trace.Ref{Addr: 0x100, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockRelease, SyncID: 7}
	o, err := Replay(context.Background(), RunConfig{}, [][]trace.Ref{{rel}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Counters.DWrites[trace.KindOS] != 1 {
		t.Errorf("OS writes = %d, want 1", o.Counters.DWrites[trace.KindOS])
	}
}

// TestReplayDeadlockIsTyped: a stream that cannot finish fails with an
// error matching sim.ErrDeadlock.
func TestReplayDeadlockIsTyped(t *testing.T) {
	bar := trace.Ref{Addr: 0x200, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncBarrier, SyncID: 3, Len: 2}
	_, err := Replay(context.Background(), RunConfig{}, [][]trace.Ref{{bar}})
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("error %v does not match sim.ErrDeadlock", err)
	}
}
