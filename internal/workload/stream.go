package workload

import (
	"fmt"
	"time"

	"oscachesim/internal/kernel"
	"oscachesim/internal/trace"
)

// Streaming workload generation. Stream generates round 0 on the
// caller's goroutine exactly as Build does and hands each CPU's round-0
// buffer to a trace.ChunkPipeline as that CPU's first chunk. When more
// rounds remain, a producer goroutine generates them into fixed-size
// pooled chunks, which it hands over as they fill. The simulator
// consumes the pipeline's per-CPU ChunkSources concurrently, so the
// later rounds overlap simulation and peak trace memory is round 0 plus
// O(NumCPUs × budget) instead of O(scale). Build and Stream drive the
// identical round loop with identical RNG streams, so the reference
// sequences (and therefore the simulated reports) are byte-identical.

// Pipeline sizing. chunkRefs is the per-CPU flush granularity of the
// rounds after round 0; at the default profile rates one chunk is
// roughly one scheduling round per CPU. budgetRefs is the per-CPU soft
// cap on references queued in the pipeline (see trace.ChunkPipeline
// for the soft-budget semantics).
const (
	chunkRefs  = trace.DefaultChunkRefs
	budgetRefs = 4 * chunkRefs
)

// StreamOptions configures a stream. The zero value is ready to use.
type StreamOptions struct {
	// NumCPUs is the processor count to trace (0 = NumCPUs, the
	// paper's 4). Must not exceed MaxCPUs; see BuildN.
	NumCPUs int
	// OnProgress, when set, is called once per generated round with the
	// references sent so far and a projected total (estimated from
	// round 0). Called from the caller's goroutine for round 0 and from
	// the producer goroutine after that.
	OnProgress func(generated, projectedTotal uint64)
	// OnStalls, when set, is called once per generated round with the
	// pipeline's cumulative producer-stall count — the number of times
	// generation blocked on a full queue so far. Called where
	// OnProgress is.
	OnStalls func(stalls uint64)
}

// Streamed is a generated workload on its way to a simulation: round 0
// queued in the pipeline the simulator consumes, plus the producer
// goroutine generating the later rounds, if any. Exactly one
// simulation may consume a Streamed, and the consumer must finish with
// either Wait (after draining the sources) or Abort (after an error) —
// both are required for goroutine and pool hygiene.
type Streamed struct {
	Name   Name
	Kernel *kernel.Kernel

	n       int
	pipe    *trace.ChunkPipeline
	done    chan struct{}
	err     error
	elapsed time.Duration // producer wall time; written before done closes
}

// Stream generates a workload trace deterministically from the seed —
// the same (name, opt, scale, seed) produces the same per-CPU
// reference sequences as Build. Round 0 is generated before Stream
// returns; a producer goroutine generates the rest.
func Stream(name Name, opt kernel.OptConfig, scale int, seed int64, sopt StreamOptions) *Streamed {
	return stream(name, opt, scale, seed, sopt, chunkRefs, budgetRefs)
}

// stream is Stream with the pipeline's chunk size and budget chosen by
// the caller.
func stream(name Name, opt kernel.OptConfig, scale int, seed int64, sopt StreamOptions, chunk, budget int) *Streamed {
	return classicPlan("Stream", name, opt, scale, seed, sopt.NumCPUs).stream(sopt, chunk, budget)
}

// stream generates round 0, queues each CPU's round-0 buffer as that
// CPU's first chunk — every queue is still empty, so no Send blocks —
// and starts the producer goroutine only if more rounds remain.
func (pl plan) stream(sopt StreamOptions, chunk, budget int) *Streamed {
	st := &Streamed{
		Name:   pl.name,
		Kernel: pl.g.k,
		n:      pl.g.n,
		pipe:   trace.NewChunkPipeline(pl.g.n, budget),
		done:   make(chan struct{}),
	}
	st.err = st.queueRoundZero(pl)
	// Rounds are statistically alike; round 0 projects the total for
	// progress reporting.
	projected := st.pipe.Sent() * uint64(pl.rounds)
	st.progress(sopt, projected)
	if st.err != nil || pl.rounds == 1 {
		st.pipe.Close()
		close(st.done)
		return st
	}
	go st.pump(pl, sopt, chunk, projected)
	return st
}

// queueRoundZero generates round 0 on the caller's goroutine and queues
// every CPU's buffer. A generator panic comes back as the error.
func (st *Streamed) queueRoundZero(pl plan) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = producerPanic(r)
		}
	}()
	pl.roundZero()
	for c, e := range pl.g.ems {
		st.pipe.Send(c, e.Refs)
		e.Refs = nil
	}
	return nil
}

// producerPanic is the error a generator panic becomes.
func producerPanic(r any) error {
	return fmt.Errorf("workload: stream producer panicked: %v", r)
}

// progress reports the references sent so far to the stream's
// callbacks.
func (st *Streamed) progress(sopt StreamOptions, projected uint64) {
	if sopt.OnProgress != nil {
		sopt.OnProgress(st.pipe.Sent(), projected)
	}
	if sopt.OnStalls != nil {
		n, _ := st.pipe.Stalls()
		sopt.OnStalls(n)
	}
}

// pump generates rounds 1 and later on the producer goroutine,
// flushing chunks into the pipeline. pump always closes the pipeline
// and the done channel, even on panic, so consumers never hang on a
// dead producer.
func (st *Streamed) pump(pl plan, sopt StreamOptions, chunk int, projected uint64) {
	start := time.Now()
	defer close(st.done)
	defer func() { st.elapsed = time.Since(start) }()
	defer st.pipe.Close()
	defer func() {
		if r := recover(); r != nil {
			st.err = producerPanic(r)
		}
	}()

	aborted := false
	for c, e := range pl.g.ems {
		e.Refs = trace.GetBatch(chunk)
		e.FlushAt = chunk
		e.Flush = func(refs []trace.Ref) []trace.Ref {
			if aborted {
				return refs[:0]
			}
			if !st.pipe.Send(c, refs) {
				// Consumer aborted: discard in place and keep reusing
				// this one buffer so the rest of the round generates
				// into it without queueing anywhere.
				aborted = true
				return refs[:0]
			}
			return trace.GetBatch(chunk)
		}
	}

	for round := 1; round < pl.rounds; round++ {
		pl.round(round)
		// Flush every emitter at the round boundary so a consumer never
		// starves on references that are generated but still buffered.
		for _, e := range pl.g.ems {
			e.FlushPending()
		}
		if aborted {
			return
		}
		st.progress(sopt, projected)
	}
	// The final buffers were flushed at the last round boundary; return
	// the (now empty) emit buffers to the pool.
	for _, e := range pl.g.ems {
		trace.PutBatch(e.Refs)
		e.Refs = nil
	}
}

// Sources returns the per-CPU consumer endpoints. Unlike
// Built.Sources, the stream is single-use: call Sources once and drive
// every source to exhaustion (or Abort).
func (st *Streamed) Sources() []trace.Source {
	srcs := make([]trace.Source, st.n)
	for c := range srcs {
		srcs[c] = st.pipe.Source(c)
	}
	return srcs
}

// Wait blocks until generation has finished and returns its error, if
// any. Call it after the simulation has drained the sources; the
// Kernel's deferred-copy counters are stable only after Wait returns.
func (st *Streamed) Wait() error {
	<-st.done
	return st.err
}

// Abort tears the stream down early: the producer is released (it
// stops generating at the next flush), queued chunks return to the
// trace pool, and Abort blocks until the producer goroutine has
// exited. Safe to call only once the simulation consuming the sources
// has returned.
func (st *Streamed) Abort() {
	st.pipe.Abort()
	<-st.done
}

// TotalRefs returns the number of references generated so far; after
// Wait it is the total trace length.
func (st *Streamed) TotalRefs() uint64 { return st.pipe.Sent() }

// PeakPendingRefs reports the pipeline's high-water mark of resident
// references — the streaming memory ceiling: round 0 plus O(budget)
// regardless of scale.
func (st *Streamed) PeakPendingRefs() int { return st.pipe.PeakPendingRefs() }

// GenStalls reports how many times the producer blocked on a full
// pipeline queue and the total wall time it spent blocked. Stable
// after Wait or Abort.
func (st *Streamed) GenStalls() (uint64, time.Duration) { return st.pipe.Stalls() }

// Elapsed returns the producer goroutine's wall time, from its start
// after round 0 to the pipeline closing; zero for a single-round
// stream, which starts no producer. Valid only after Wait or Abort
// returns.
func (st *Streamed) Elapsed() time.Duration { return st.elapsed }
