package trace

import (
	"sync"
	"time"
)

// This file is the streaming half of the trace model: a bounded,
// pooled chunk pipeline that couples one trace-generating producer
// goroutine to the per-processor consumers of a running simulation.
// The workload generator flushes fixed-size chunks of refs into the
// pipeline as it produces them; the simulator pulls them back out
// through ChunkSource values (one per CPU) that implement the ordinary
// Source interface. Generation therefore overlaps simulation, and the
// peak trace memory is O(NumCPUs × chunk budget) instead of O(total
// trace length).
//
// Deadlock freedom. The producer generates rounds CPU-by-CPU while the
// simulator consumes in global-time order, so their per-CPU positions
// can skew: the producer may want to push to a full queue while the
// simulator waits on a different, empty one. A naive bounded ring
// deadlocks there. The pipeline therefore treats the per-CPU budget as
// a soft limit: a producer that finds its target queue over budget
// waits only while no starving consumer remains unfed. The moment a
// consumer blocks on an empty queue it wakes the producer, which is
// then allowed to overshoot the budget — but only until the starving
// queue receives a chunk. Closing the escape on delivery rather than on
// consumer wake-up matters: a woken consumer can sit on the scheduler's
// run queue for milliseconds, and a producer that kept overshooting for
// that long would buffer whole rounds per episode. With the delivery
// rule each starvation episode admits at most the refs generated
// between the block and the starving CPU's next flush — about one
// generation round — so peak residency stays O(budget + round), never
// O(trace length), regardless of per-CPU consumption skew.

// ChunkPipeline carries pooled []Ref chunks from one producer to one
// consumer goroutine per CPU queue. Chunks sent through the pipeline
// are owned by it: the consumer returns each exhausted chunk to the
// trace pool, and Abort recycles whatever is still queued.
type ChunkPipeline struct {
	mu       sync.Mutex
	produced sync.Cond // consumers wait here for data or close
	drained  sync.Cond // the producer waits here for room or starvation

	queues  [][][]Ref // per-CPU FIFO of filled chunks
	heads   []int     // per-CPU index of the FIFO head in queues[cpu]
	pending []int     // per-CPU refs queued and not yet received
	total   int       // refs pending across all queues (Σ pending)

	budget   int   // per-CPU pending-ref soft cap
	starving []int // per-CPU count of consumers blocked on that empty queue
	closed   bool
	aborted  bool

	sent uint64 // total refs sent (final value = trace length)
	peak int    // high-water mark of refs resident across all queues

	// Generation-stall accounting: how often (and for how long) the
	// producer blocked on a full queue. A streaming run whose stall
	// time rivals its simulate time is consumer-bound — the budget is
	// tight or the simulator is the bottleneck — which is exactly the
	// attribution question the observability layer exists to answer.
	stalls     uint64
	stallNanos int64
}

// NewChunkPipeline returns a pipeline with one queue per CPU and the
// given per-CPU soft budget in references. A budget below one chunk
// still admits whole chunks — Send never splits — so the effective
// floor is one chunk per CPU.
func NewChunkPipeline(numCPUs, budgetRefs int) *ChunkPipeline {
	if numCPUs <= 0 {
		numCPUs = 1
	}
	if budgetRefs <= 0 {
		budgetRefs = 1 << 15
	}
	p := &ChunkPipeline{
		queues:   make([][][]Ref, numCPUs),
		heads:    make([]int, numCPUs),
		pending:  make([]int, numCPUs),
		starving: make([]int, numCPUs),
		budget:   budgetRefs,
	}
	p.produced.L = &p.mu
	p.drained.L = &p.mu
	return p
}

// Send queues one chunk for the given CPU, blocking while the queue is
// over budget and every consumer is keeping up. It returns false when
// the pipeline was aborted; the chunk then still belongs to the caller
// (typically to be reused as the next emit buffer).
func (p *ChunkPipeline) Send(cpu int, chunk []Ref) bool {
	if len(chunk) == 0 {
		p.mu.Lock()
		aborted := p.aborted
		p.mu.Unlock()
		return !aborted
	}
	p.mu.Lock()
	if p.pending[cpu] >= p.budget && !p.unfedStarver() && !p.aborted {
		// The producer is about to block: count the episode and its
		// wall time. time.Now is taken only on this cold path, so the
		// unblocked Send stays clock-free.
		t0 := time.Now()
		p.stalls++
		for p.pending[cpu] >= p.budget && !p.unfedStarver() && !p.aborted {
			p.drained.Wait()
		}
		p.stallNanos += time.Since(t0).Nanoseconds()
	}
	if p.aborted {
		p.mu.Unlock()
		return false
	}
	p.queues[cpu] = append(p.queues[cpu], chunk)
	p.pending[cpu] += len(chunk)
	p.sent += uint64(len(chunk))
	p.total += len(chunk)
	if p.total > p.peak {
		p.peak = p.total
	}
	p.produced.Broadcast()
	p.mu.Unlock()
	return true
}

// unfedStarver reports whether some consumer is blocked on a queue that
// is still empty — the only state in which the producer may exceed the
// budget. Callers hold p.mu.
func (p *ChunkPipeline) unfedStarver() bool {
	for cpu, n := range p.starving {
		if n > 0 && p.queued(cpu) == 0 {
			return true
		}
	}
	return false
}

// queued returns the number of chunks waiting in one CPU's FIFO.
// Callers hold p.mu.
func (p *ChunkPipeline) queued(cpu int) int {
	return len(p.queues[cpu]) - p.heads[cpu]
}

// Close marks the stream complete. Consumers drain the remaining
// chunks and then see end-of-stream.
func (p *ChunkPipeline) Close() {
	p.mu.Lock()
	p.closed = true
	p.produced.Broadcast()
	p.mu.Unlock()
}

// Abort tears the pipeline down from the consumer side: a blocked
// producer is released (its Send returns false), queued chunks are
// recycled to the trace pool, and every subsequent receive reports
// end-of-stream. Abort is idempotent and safe after Close. It must not
// race with an active consumer: callers abort only after the
// simulation using the sources has returned.
func (p *ChunkPipeline) Abort() {
	p.mu.Lock()
	p.aborted = true
	for cpu, q := range p.queues {
		for _, chunk := range q[p.heads[cpu]:] {
			PutBatch(chunk)
		}
		p.queues[cpu] = nil
		p.heads[cpu] = 0
		p.pending[cpu] = 0
	}
	p.total = 0
	p.drained.Broadcast()
	p.produced.Broadcast()
	p.mu.Unlock()
}

// recv pops the next chunk for a CPU, blocking until data arrives or
// the stream ends. A consumer that blocks flags itself starving, which
// releases a producer parked on a different queue's budget — the
// deadlock-freedom rule described in the file comment.
func (p *ChunkPipeline) recv(cpu int) ([]Ref, bool) {
	p.mu.Lock()
	for p.queued(cpu) == 0 && !p.closed && !p.aborted {
		p.starving[cpu]++
		p.drained.Broadcast()
		p.produced.Wait()
		p.starving[cpu]--
	}
	if p.queued(cpu) == 0 {
		p.mu.Unlock()
		return nil, false
	}
	// Pop by advancing a head index — no per-chunk shift of the FIFO.
	// The backing array resets once drained, so its capacity is reused
	// by later Sends instead of the slice crawling forward forever.
	q := p.queues[cpu]
	h := p.heads[cpu]
	chunk := q[h]
	q[h] = nil
	h++
	if h == len(q) {
		p.queues[cpu] = q[:0]
		h = 0
	}
	p.heads[cpu] = h
	p.pending[cpu] -= len(chunk)
	p.total -= len(chunk)
	p.drained.Broadcast()
	p.mu.Unlock()
	return chunk, true
}

// Sent returns the number of references sent so far; after the
// producer closes the pipeline it is the total trace length.
func (p *ChunkPipeline) Sent() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Stalls returns the number of times the producer blocked on a full
// queue and the total wall time it spent blocked — the pipeline's
// backpressure record.
func (p *ChunkPipeline) Stalls() (uint64, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stalls, time.Duration(p.stallNanos)
}

// PeakPendingRefs returns the high-water mark of references resident
// in the pipeline across all queues — the number the streaming
// benchmark reports to pin the O(chunk) memory ceiling.
func (p *ChunkPipeline) PeakPendingRefs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Source returns the consumer endpoint for one CPU. Each source is
// single-use (the stream cannot be replayed) and, like every Source,
// not safe for concurrent use — but distinct CPUs' sources may be
// driven from one goroutine, as the simulator does.
func (p *ChunkPipeline) Source(cpu int) *ChunkSource {
	return &ChunkSource{p: p, cpu: cpu}
}

// ChunkSource adapts one pipeline queue to the Source interface,
// returning each chunk to the trace pool once its last reference has
// been delivered.
type ChunkSource struct {
	p   *ChunkPipeline
	cpu int
	cur []Ref
	pos int
}

// Read implements Source. It returns only references of the chunk
// in hand, so a batch that reaches a chunk boundary comes back short.
// It receives the next chunk — and may block — only when the chunk in
// hand is spent, so the size of a batch changes neither the pipeline's
// starvation signal nor its deadlock-freedom argument (see the file
// comment).
func (s *ChunkSource) Read(dst []Ref) int {
	if s.cur == nil {
		chunk, ok := s.p.recv(s.cpu)
		if !ok {
			return 0
		}
		s.cur, s.pos = chunk, 0
	}
	n := copy(dst, s.cur[s.pos:])
	s.pos += n
	if s.pos == len(s.cur) {
		PutBatch(s.cur)
		s.cur, s.pos = nil, 0
	}
	return n
}
