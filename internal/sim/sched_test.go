package sim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"oscachesim/internal/trace"
)

// schedTraces builds one random lock-, barrier- and write-heavy trace
// per processor. Each of the phases mixes reads and writes over a small
// shared region (so lines migrate and write buffers fill) with critical
// sections on a handful of contended locks, and ends in a barrier every
// processor joins, so the traces never deadlock.
func schedTraces(rng *rand.Rand, n, phases int) [][]trace.Ref {
	const (
		locks     = 3
		sharedLen = 1 << 12
	)
	out := make([][]trace.Ref, n)
	for cpu := range out {
		private := uint64(0x100000 * (cpu + 1))
		var refs []trace.Ref
		access := func(op trace.Op) {
			addr := private + uint64(rng.Intn(1<<14))&^3
			if rng.Intn(2) == 0 {
				addr = 0x40000 + uint64(rng.Intn(sharedLen))&^3
			}
			refs = append(refs, trace.Ref{Addr: addr, Op: op, Kind: trace.KindOS})
		}
		for ph := 0; ph < phases; ph++ {
			for i := rng.Intn(24); i > 0; i-- {
				switch rng.Intn(3) {
				case 0:
					access(trace.OpRead)
				default:
					access(trace.OpWrite)
				}
				if rng.Intn(6) != 0 {
					continue
				}
				id := uint32(1 + rng.Intn(locks))
				lock := trace.Ref{Addr: 0x70000 + uint64(id)*64, Op: trace.OpWrite, Kind: trace.KindOS,
					Class: trace.ClassLock, SyncID: id}
				lock.Sync = trace.SyncLockAcquire
				refs = append(refs, lock)
				for j := 1 + rng.Intn(4); j > 0; j-- {
					access(trace.OpWrite)
				}
				lock.Sync = trace.SyncLockRelease
				refs = append(refs, lock)
			}
			refs = append(refs, trace.Ref{Addr: 0x71000, Op: trace.OpWrite, Kind: trace.KindOS,
				Class: trace.ClassBarrier, Sync: trace.SyncBarrier, SyncID: uint32(100 + ph)})
		}
		for i := range refs {
			refs[i].CPU = uint8(cpu)
		}
		out[cpu] = refs
	}
	return out
}

// drainProbe is the part of a processor's state a write-buffer probe
// changes when it makes progress.
type drainProbe struct {
	l1, l2       int
	freeA, freeB uint64
}

func probeOf(c *cpuState) drainProbe {
	return drainProbe{c.l1wb.Len(), c.l2wb.Len(), c.wbFreeA, c.wbFreeB}
}

// TestSchedulerInvariants drives the step loop by hand over random
// synchronization-heavy traces and checks, before every step, the
// facts the serial loop's speed rests on: the tournament tree's root is
// the brute-force argmin of live (clock, id) over runnable processors,
// every write-buffer probe the drain horizon skips would have made no
// progress, and every processor's reference window holds exactly the
// next unexecuted references of its own stream. Even processors read
// SliceSources and odd ones oneAtATime sources, so both full and
// single-reference batches feed the windows.
func TestSchedulerInvariants(t *testing.T) {
	for _, n := range []int{4, 33, 64} {
		for _, coh := range []CoherenceKind{CoherenceSnoop, CoherenceDirectory} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/cpus=%d/seed=%d", coh, n, seed), func(t *testing.T) {
					checkSchedulerInvariants(t, n, coh, seed)
				})
			}
		}
	}
}

func checkSchedulerInvariants(t *testing.T, n int, coh CoherenceKind, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := DefaultParams()
	p.NumCPUs = n
	p.Coherence = coh
	// Shallow buffers make overflow stalls, and so clock jumps inside
	// a lock grant's write, common.
	p.L1WriteBufDepth = 1 + int(seed)%2
	p.L2WriteBufDepth = 1
	traces := schedTraces(rng, n, 6)
	srcs := singleRefSources(traces)
	for i := 0; i < n; i += 2 {
		srcs[i] = trace.NewSliceSource(traces[i])
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	var skipped, maxAhead int
	for step := 0; ; step++ {
		next := s.runq[1]
		want := -1
		for _, c := range s.cpus {
			if c.done || c.blocked {
				continue
			}
			if want < 0 || c.time < s.cpus[want].time {
				want = c.id
			}
		}
		if next == never {
			if want >= 0 || !s.allDone() {
				t.Fatalf("step %d: empty runnable set, want cpu%d (all done: %t)", step, want, s.allDone())
			}
			break
		}
		for _, o := range s.cpus {
			ahead := o.win[o.pos:o.n]
			maxAhead = max(maxAhead, len(ahead))
			if len(ahead) > refWindow || o.refs+uint64(len(ahead)) > uint64(len(traces[o.id])) ||
				!slices.Equal(ahead, traces[o.id][o.refs:o.refs+uint64(len(ahead))]) {
				t.Fatalf("step %d: cpu%d window holds %d refs that are not refs %d.. of its stream",
					step, o.id, len(ahead), o.refs)
			}
		}
		c := s.cpus[next&runIDMask]
		if c.id != want || next>>runIDBits != c.time {
			t.Fatalf("step %d: tree picks cpu%d at key clock %d (live clock %d), argmin is cpu%d at %d",
				step, c.id, next>>runIDBits, c.time, want, s.cpus[want].time)
		}
		for _, o := range s.cpus {
			if s.drainMask[o.id>>6]&(1<<(uint(o.id)&63)) == 0 || s.drainAt[o.id] <= c.time {
				continue
			}
			skipped++
			at, before := s.drainAt[o.id], probeOf(o)
			s.advanceDrainsUntil(o, c.time)
			if after := probeOf(o); after != before {
				t.Fatalf("step %d: cpu%d skipped at horizon %d > %d, but a probe progressed: %+v -> %+v",
					step, o.id, at, c.time, before, after)
			}
		}
		s.step(c)
		s.runqSet(c)
	}
	s.finish()
	if maxAhead < 2 {
		t.Error("no window ever held more than one reference: the window check is vacuous")
	}
	if skipped == 0 {
		t.Error("no probe was ever skipped: the drain-horizon check is vacuous")
	}
	if s.c.Time[trace.KindOS].Sync == 0 {
		t.Error("no synchronization wait: the traces never contend")
	}
}

// TestClockPastKeyRangeFails checks that clocks beyond the range a
// scheduler key can hold fail the run instead of mis-ordering
// processors.
func TestClockPastKeyRangeFails(t *testing.T) {
	p := DefaultParams()
	srcs := make([]trace.Source, p.NumCPUs)
	for i := range srcs {
		srcs[i] = trace.NewSliceSource([]trace.Ref{osRead(0x10000), osRead(0x20000)})
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.cpus {
		c.time = runMaxTime - 1
		s.runqSet(c)
	}
	if _, err := s.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "clock passed") {
		t.Fatalf("Run = %v, want a clock-range error", err)
	}
}
