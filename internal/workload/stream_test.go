package workload

import (
	"strings"
	"sync"
	"testing"

	"oscachesim/internal/kernel"
	"oscachesim/internal/trace"
)

// drainStream consumes a Streamed's sources in a skewed order (each
// CPU fully, last first — harsher than the simulator's balanced
// min-time order) and returns the per-CPU refs.
func drainStream(t *testing.T, st *Streamed) [][]trace.Ref {
	t.Helper()
	srcs := st.Sources()
	per := make([][]trace.Ref, len(srcs))
	var buf [64]trace.Ref
	for c := len(srcs) - 1; c >= 0; c-- {
		for n := srcs[c].Read(buf[:]); n > 0; n = srcs[c].Read(buf[:]) {
			per[c] = append(per[c], buf[:n]...)
		}
	}
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	return per
}

// TestStreamMatchesBuild pins the tentpole's core invariant: the
// streaming producer emits exactly the reference sequences the
// materialized build does, for every workload and a non-trivial OS
// optimization mix.
func TestStreamMatchesBuild(t *testing.T) {
	opts := []kernel.OptConfig{
		{},
		{BlockDMA: true, Privatize: true, Relocate: true, HotSpotPrefetch: true},
	}
	for _, name := range Names() {
		for _, opt := range opts {
			built := Build(name, opt, 3, 7)
			st := stream(name, opt, 3, 7, StreamOptions{}, 512, 2048)
			got := drainStream(t, st)
			for c := range built.PerCPU {
				want := built.PerCPU[c]
				if len(got[c]) != len(want) {
					t.Fatalf("%s cpu %d: streamed %d refs, built %d", name, c, len(got[c]), len(want))
				}
				for i := range want {
					if got[c][i] != want[i] {
						t.Fatalf("%s cpu %d ref %d: streamed %+v, built %+v", name, c, i, got[c][i], want[i])
					}
				}
			}
			if st.TotalRefs() != uint64(built.TotalRefs()) {
				t.Fatalf("%s: TotalRefs %d != built %d", name, st.TotalRefs(), built.TotalRefs())
			}
			built.Release()
		}
	}
}

// TestStreamRoundZeroPanic pins that a generator panic in round 0,
// which runs on the caller's goroutine, surfaces from Wait as producer
// panics do, with the stream closed and no producer started.
func TestStreamRoundZeroPanic(t *testing.T) {
	for _, rounds := range []int{1, 3} {
		g := newGenerator(ProfileFor(Shell), kernel.New(kernel.OptConfig{}), 1, NumCPUs)
		fault := func(round int) {
			g.round(round)
			panic("seeded fault")
		}
		st := plan{name: Shell, g: g, rounds: rounds, round: fault}.stream(StreamOptions{}, chunkRefs, budgetRefs)
		var buf [64]trace.Ref
		for _, src := range st.Sources() {
			if n := src.Read(buf[:]); n != 0 {
				t.Fatalf("%d rounds: a panicked round 0 delivered %d refs", rounds, n)
			}
		}
		err := st.Wait()
		if err == nil || !strings.Contains(err.Error(), "workload: stream producer panicked: seeded fault") {
			t.Fatalf("%d rounds: Wait = %v, want the producer panic", rounds, err)
		}
		if st.Elapsed() != 0 {
			t.Errorf("%d rounds: a producer ran for %v after round 0 panicked", rounds, st.Elapsed())
		}
	}
}

// TestStreamBoundedMemory pins the O(chunk) memory ceiling: at 10× the
// default scale the pipeline's peak resident references must stay a
// small multiple of the configured budget — independent of the ~10M-ref
// trace length — where a whole built trace would hold every ref.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10× DefaultScale generation")
	}
	const scale = 10 * DefaultScale
	st := Stream(Shell, kernel.OptConfig{}, scale, 1, StreamOptions{})
	// A healthy consumer never lets one empty queue hold up the others:
	// each stream drains on its own goroutine.
	srcs := st.Sources()
	counts := make([]uint64, len(srcs))
	var wg sync.WaitGroup
	for c, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]trace.Ref, chunkRefs)
			for n := src.Read(buf); n > 0; n = src.Read(buf) {
				counts[c] += uint64(n)
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, n := range counts {
		total += n
	}
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	if total != st.TotalRefs() {
		t.Fatalf("drained %d refs, producer sent %d", total, st.TotalRefs())
	}
	if total < 5_000_000 {
		t.Fatalf("trace unexpectedly small: %d refs", total)
	}
	// The budget is soft (the starvation escape may overshoot), so the
	// assertion allows slack — but the ceiling must be a handful of
	// budgets, nowhere near the trace length.
	ceiling := 4 * NumCPUs * budgetRefs
	if peak := st.PeakPendingRefs(); peak > ceiling {
		t.Fatalf("peak resident refs %d exceeds ceiling %d (total trace %d)", peak, ceiling, total)
	}
	t.Logf("scale %d: %d refs total, peak resident %d (%.2f%% of trace)",
		scale, total, st.PeakPendingRefs(), 100*float64(st.PeakPendingRefs())/float64(total))
}

// TestStreamAbort verifies consumer-side teardown: aborting mid-stream
// releases a producer parked on the budget, and Wait returns without
// error (the producer stops generating, it does not fail).
func TestStreamAbort(t *testing.T) {
	st := stream(Shell, kernel.OptConfig{}, 50, 1, StreamOptions{}, 256, 256)
	src := st.Sources()[0]
	var buf [10]trace.Ref
	for i := 0; i < 100; i++ {
		if src.Read(buf[:]) == 0 {
			t.Fatal("stream ended during warm-up")
		}
	}
	st.Abort() // blocks until the producer goroutine exits
	if err := st.Wait(); err != nil {
		t.Fatalf("Wait after Abort: %v", err)
	}
	if st.TotalRefs() == 0 {
		t.Fatal("no refs recorded before abort")
	}
}

// TestStreamProgress checks the OnProgress feed: monotone generated
// counts, a projection after round one, and a final call matching the
// trace total.
func TestStreamProgress(t *testing.T) {
	var calls int
	var lastGen, lastProj uint64
	st := Stream(TRFD4, kernel.OptConfig{}, 4, 1, StreamOptions{
		OnProgress: func(generated, projected uint64) {
			calls++
			if generated < lastGen {
				t.Errorf("generated went backwards: %d -> %d", lastGen, generated)
			}
			lastGen, lastProj = generated, projected
		},
	})
	drainStream(t, st)
	if calls != 4 {
		t.Fatalf("OnProgress called %d times, want one per round (4)", calls)
	}
	if lastGen != st.TotalRefs() {
		t.Fatalf("final generated %d != total %d", lastGen, st.TotalRefs())
	}
	if lastProj == 0 {
		t.Fatal("projection never set")
	}
}

func TestBuiltReleaseIdempotent(t *testing.T) {
	b := Build(Shell, kernel.OptConfig{}, 2, 1)
	// A copy shares the latch, so a release through either must make
	// the other a no-op.
	c := *b
	b.Release()
	c.Release()
	b.Release()
	// The real hazard: after a double release the pool must not hand
	// the same backing array to two callers. Exercise it by taking two
	// batches and checking they do not alias.
	b1 := trace.GetBatch(1)
	b2 := trace.GetBatch(1)
	b1 = append(b1, trace.Ref{Addr: 1})
	b2 = append(b2, trace.Ref{Addr: 2})
	if &b1[0] == &b2[0] {
		t.Fatal("pool handed the same backing array out twice")
	}
	trace.PutBatch(b1)
	trace.PutBatch(b2)
}
