package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"oscachesim/internal/bus"
	"oscachesim/internal/coherence"
	"oscachesim/internal/memory"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
)

// Simulator co-simulates NumCPUs processors over their trace sources.
// Processors advance in global-time order (the runnable processor with
// the smallest local clock executes its next reference), which keeps
// bus arbitration and coherence interactions causally ordered.
type Simulator struct {
	p    Params
	cpus []*cpuState
	bus  *bus.Bus
	c    stats.Counters

	// Directory coherence (Params.Coherence == CoherenceDirectory):
	// memory lines are interleaved across per-processor home nodes,
	// each with its own port timeline instead of the shared bus, and
	// dir holds the full-map directory entries of cached lines.
	home  memory.HomeMap
	ports []*bus.Bus
	dir   map[uint64]coherence.DirEntry

	locks    map[uint32]*lockState
	barriers map[uint32]*barrierState

	// obs, when non-nil, receives the event stream of observe.go.
	obs Observer
	// progress, when non-nil, receives sampled live counters (see
	// SetProgress).
	progress *Progress

	// runq is a tournament tree over the processors, keyed on (local
	// clock, id) packed into one word (see runKey): leaf runqLeaves+i
	// holds processor i's key (never while it is done or blocked),
	// every inner node holds the smaller of its two children, and
	// runq[1] is therefore the next processor to step — smallest clock,
	// ties to the lowest id. A clock change replays one leaf-to-root
	// path of inline compares.
	runq       []uint64
	runqLeaves int

	// drainMask has one bit per processor, set while that processor has
	// a nonempty write buffer. step probes only flagged processors (in
	// ascending id order, matching the old full scan) instead of all N.
	drainMask []uint64
	// drainAt is, per processor, a lower bound on the earliest global
	// time at which a probe of its write buffers can make progress: the
	// smallest service start over its nonempty buffers' heads. Every
	// push and service resets it to 0, and each probe recomputes it, so
	// step can skip a flagged processor whose horizon lies in the
	// future without touching its state.
	drainAt []uint64

	refs uint64
}

// lockState re-enforces the mutual exclusion annotated in the trace.
type lockState struct {
	held    bool
	owner   int
	waiters []waiter
}

type waiter struct {
	cpu     int
	arrived uint64
	ref     trace.Ref
}

// barrierState collects arrivals until all participants are present.
type barrierState struct {
	need    int
	arrived []waiter
}

// Result is the outcome of one simulation run.
type Result struct {
	// Counters is the full measurement record.
	Counters stats.Counters
	// CPUTime is each processor's final local clock.
	CPUTime []uint64
	// Refs is the number of trace references processed.
	Refs uint64
}

// ErrDeadlock reports that every unfinished processor was blocked on a
// lock or barrier — a malformed trace.
var ErrDeadlock = errors.New("sim: deadlock: all unfinished processors blocked")

// New builds a simulator over one source per processor.
func New(p Params, sources []trace.Source) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != p.NumCPUs {
		return nil, fmt.Errorf("sim: %d sources for %d CPUs", len(sources), p.NumCPUs)
	}
	s := &Simulator{
		p:        p,
		bus:      bus.New(p.Bus),
		locks:    make(map[uint32]*lockState),
		barriers: make(map[uint32]*barrierState),
	}
	if p.Coherence == CoherenceDirectory {
		s.home = memory.NewHomeMap(p.NumCPUs, p.L2.LineSize)
		s.ports = make([]*bus.Bus, p.NumCPUs)
		for i := range s.ports {
			s.ports[i] = bus.New(p.Bus)
		}
		s.dir = make(map[uint64]coherence.DirEntry)
	}
	for i, src := range sources {
		s.cpus = append(s.cpus, newCPU(i, p, src))
	}
	s.runqLeaves = 1 << bits.Len(uint(p.NumCPUs-1))
	s.runq = make([]uint64, 2*s.runqLeaves)
	for i := range s.runq {
		s.runq[i] = never
	}
	for _, c := range s.cpus {
		s.runqSet(c)
	}
	s.drainMask = make([]uint64, (p.NumCPUs+63)/64)
	s.drainAt = make([]uint64, p.NumCPUs)
	return s, nil
}

// Run simulates to trace exhaustion and returns the measurements.
// Cancellation of ctx aborts the run between references (checked every
// ctxCheckStride steps, so an abort costs at most a few microseconds of
// extra simulation); the error then wraps context.Cause(ctx).
func (s *Simulator) Run(ctx context.Context) (*Result, error) {
	for n := uint64(0); ; n++ {
		if n&(ctxCheckStride-1) == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("sim: canceled after %d refs: %w", s.refs, context.Cause(ctx))
			default:
			}
		}
		next := s.runq[1]
		if next == never {
			if s.allDone() {
				break
			}
			return nil, s.deadlockError()
		}
		c := s.cpus[next&runIDMask]
		if next>>runIDBits == runMaxTime {
			return nil, fmt.Errorf("sim: cpu%d clock passed %d cycles", c.id, uint64(runMaxTime))
		}
		s.step(c)
		s.runqSet(c)
		if s.progress != nil && n&(progressStride-1) == 0 {
			s.progress.sample(s.refs, s.c.DReadMisses[trace.KindOS], c.time)
		}
	}
	s.finish()
	if s.progress != nil {
		s.progress.markDone(s.refs, s.c.DReadMisses[trace.KindOS], s.c.Cycles)
	}
	return s.result(), nil
}

// result assembles the Result record after finish().
func (s *Simulator) result() *Result {
	res := &Result{
		Counters: s.c,
		Refs:     s.refs,
		CPUTime:  make([]uint64, 0, len(s.cpus)),
	}
	for _, c := range s.cpus {
		res.CPUTime = append(res.CPUTime, c.time)
	}
	return res
}

// ctxCheckStride and progressStride must be powers of two; they bound
// the per-reference cost of cancellation checks and progress sampling.
const (
	ctxCheckStride = 1024
	progressStride = 256
)

// never is a time no clock reaches: the tree key of a processor that is
// done or blocked, and the drain horizon of empty write buffers.
const never = ^uint64(0)

// A run key packs a processor's clock and id into one word, so a single
// unsigned compare orders keys by (clock, id). runIDBits covers every
// machine size Validate accepts; the array length below stops the build
// if a larger machine is ever allowed. Clocks saturate at runMaxTime,
// which keeps every order exact until the earliest clock reaches it;
// Run fails there.
const (
	runIDBits  = 8
	runIDMask  = 1<<runIDBits - 1
	runMaxTime = never>>runIDBits - 1
)

var _ [1<<runIDBits - max(MaxSnoopCPUs, MaxDirectoryCPUs)]struct{}

// runKey returns c's tree key: never while it is done or blocked.
func runKey(c *cpuState) uint64 {
	if c.done || c.blocked {
		return never
	}
	return min(c.time, runMaxTime)<<runIDBits | uint64(c.id)
}

// runqSet re-keys processor c from its live state and replays the
// winners on the path from its leaf to the root. Every clock change of
// a runnable processor must be followed by a runqSet before the next
// step is chosen.
func (s *Simulator) runqSet(c *cpuState) {
	k := runKey(c)
	i := s.runqLeaves + c.id
	s.runq[i] = k
	for i > 1 {
		k = min(k, s.runq[i^1])
		i >>= 1
		s.runq[i] = k
	}
}

func (s *Simulator) allDone() bool {
	for _, c := range s.cpus {
		if !c.done {
			return false
		}
	}
	return true
}

func (s *Simulator) deadlockError() error {
	var msg string
	for id, l := range s.locks {
		if l.held {
			msg += fmt.Sprintf("; lock %d held by cpu%d with %d waiters", id, l.owner, len(l.waiters))
		}
	}
	for id, b := range s.barriers {
		if len(b.arrived) > 0 {
			msg += fmt.Sprintf("; barrier %d has %d/%d arrivals", id, len(b.arrived), b.need)
		}
	}
	return fmt.Errorf("%w%s", ErrDeadlock, msg)
}

// step executes one trace reference on processor c. Before the
// reference runs, every processor's write buffers drain up to the
// current global time, so remote stores become visible (and
// invalidate) on schedule even when their issuer has gone idle.
func (s *Simulator) step(c *cpuState) {
	// Only processors with buffered writes need probing; the bitmask
	// walk visits them in ascending id, the order the old full scan
	// used (drain order is observable through bus arbitration). A probe
	// before a processor's drain horizon cannot make progress, so it is
	// skipped.
	for w, m := range s.drainMask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << b
			s.probeDrains(w*64+b, c.time)
		}
	}
	r := c.next()
	if r == nil {
		c.done = true
		s.finishBlock(c)
		return
	}
	s.refs++
	c.refs++
	if s.obs != nil {
		s.emit(Event{Kind: EvRef, CPU: c.id, Addr: r.Addr, Ref: *r})
	}
	s.exec(c, r)
}

// exec dispatches one reference. r points into c's window and is valid
// only for this call: whatever must outlive it (a lock or barrier
// waiter, an observed Event) takes a copy.
func (s *Simulator) exec(c *cpuState, r *trace.Ref) {
	if r.Block != c.curBlock {
		s.finishBlock(c)
		s.startBlock(c, r)
	}
	mode := modeOf(r.Kind)
	switch r.Op {
	case trace.OpInstr:
		s.instrFetch(c, r, mode)
	case trace.OpRead:
		s.c.DReads[mode]++
		s.readAccess(c, r, mode)
	case trace.OpWrite:
		switch r.Sync {
		case trace.SyncLockAcquire:
			s.lockAcquire(c, r, mode)
			return // the access happens at grant time
		case trace.SyncLockRelease:
			s.c.DWrites[mode]++
			s.writeAccess(c, r, mode)
			s.lockRelease(c, r)
		case trace.SyncBarrier:
			s.c.DWrites[mode]++
			s.writeAccess(c, r, mode)
			s.barrierArrive(c, r, mode)
		default:
			s.c.DWrites[mode]++
			s.writeAccess(c, r, mode)
		}
	case trace.OpPrefetch:
		s.prefetchAccess(c, r, mode)
	case trace.OpBlockDMA:
		s.dmaAccess(c, r, mode)
	}
}

// --- Synchronization -------------------------------------------------

// lockAcquire performs a test&set on the lock word. If the lock is
// held the processor blocks; the write (and its coherence traffic)
// happens when the lock is granted.
func (s *Simulator) lockAcquire(c *cpuState, r *trace.Ref, mode int) {
	l := s.locks[r.SyncID]
	if l == nil {
		l = &lockState{}
		s.locks[r.SyncID] = l
	}
	if !l.held {
		l.held = true
		l.owner = c.id
		s.c.DWrites[mode]++
		s.writeAccess(c, r, mode)
		return
	}
	l.waiters = append(l.waiters, waiter{cpu: c.id, arrived: c.time, ref: *r})
	c.blocked = true
}

// lockRelease frees the lock or hands it to the first waiter.
func (s *Simulator) lockRelease(c *cpuState, r *trace.Ref) {
	l := s.locks[r.SyncID]
	if l == nil || !l.held || l.owner != c.id {
		// A release without a matching acquire is tolerated (the
		// trace may start mid-critical-section); treat as a plain
		// write, which writeAccess already performed.
		return
	}
	if len(l.waiters) == 0 {
		l.held = false
		return
	}
	// Pop the head by shifting in place, so the waiter array's capacity
	// is reused instead of re-sliced away (re-slicing forces append to
	// allocate a fresh array on every acquire/release cycle).
	w := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	l.owner = w.cpu
	wc := s.cpus[w.cpu]
	grant := max(c.time, w.arrived) + s.p.SyncGrantCycles
	wmode := modeOf(w.ref.Kind)
	s.c.Time[wmode].Sync += grant - w.arrived
	wc.time = grant
	wc.blocked = false
	// The successful test&set happens now, with its coherence
	// traffic (it invalidates the releaser's copy of the lock word,
	// seeding the next coherence miss on the lock). The write advances
	// the grantee's clock, so it is re-keyed only afterwards.
	s.c.DWrites[wmode]++
	s.writeAccess(wc, &w.ref, wmode)
	s.runqSet(wc)
}

// barrierArrive blocks the processor until all participants arrive.
func (s *Simulator) barrierArrive(c *cpuState, r *trace.Ref, mode int) {
	need := int(r.Len)
	if need <= 0 {
		need = s.p.NumCPUs
	}
	b := s.barriers[r.SyncID]
	if b == nil {
		b = &barrierState{need: need}
		s.barriers[r.SyncID] = b
	}
	b.arrived = append(b.arrived, waiter{cpu: c.id, arrived: c.time, ref: *r})
	if len(b.arrived) < b.need {
		c.blocked = true
		return
	}
	// Last arrival releases everyone, including itself.
	release := c.time + s.p.SyncGrantCycles
	for _, w := range b.arrived {
		wc := s.cpus[w.cpu]
		wmode := modeOf(w.ref.Kind)
		s.c.Time[wmode].Sync += release - w.arrived
		wc.time = release
		wc.blocked = false
		if wc != c {
			// c is re-keyed when its step ends; the others left the
			// tree when they blocked on arrival.
			s.runqSet(wc)
		}
	}
	delete(s.barriers, r.SyncID)
}

// finish drains all write buffers so their traffic is accounted for.
func (s *Simulator) finish() {
	for _, c := range s.cpus {
		s.finishBlock(c)
		for c.l1wb.Len() > 0 || c.l2wb.Len() > 0 {
			s.forceDrainStep(c)
		}
	}
	var maxTime uint64
	for _, c := range s.cpus {
		if c.time > maxTime {
			maxTime = c.time
		}
	}
	s.c.Cycles = maxTime
	s.c.Bus = s.bus.Stats()
	// A directory machine's traffic lives on the home-node ports;
	// aggregate them into the single machine-wide record (the shared
	// bus is unused and reports zeros).
	for _, port := range s.ports {
		s.c.Bus.Accumulate(port.Stats())
	}
}
