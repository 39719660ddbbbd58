package trace

import (
	"sync"
	"testing"
	"time"
)

// mkChunk builds a pooled chunk of n refs for cpu with recognizable
// addresses starting at base.
func mkChunk(cpu uint8, base uint64, n int) []Ref {
	c := GetBatch(n)
	for i := 0; i < n; i++ {
		c = append(c, Ref{Addr: base + uint64(i), CPU: cpu})
	}
	return c
}

func TestChunkPipelineDelivery(t *testing.T) {
	p := NewChunkPipeline(2, 0)
	go func() {
		p.Send(0, mkChunk(0, 100, 3))
		p.Send(1, mkChunk(1, 200, 2))
		p.Send(0, mkChunk(0, 103, 2))
		p.Close()
	}()
	s0, s1 := p.Source(0), p.Source(1)
	for i := 0; i < 5; i++ {
		r, ok := next(s0)
		if !ok {
			t.Fatalf("cpu0 ref %d: stream ended early", i)
		}
		if r.Addr != 100+uint64(i) || r.CPU != 0 {
			t.Fatalf("cpu0 ref %d = %+v", i, r)
		}
	}
	if _, ok := next(s0); ok {
		t.Fatal("cpu0: refs after close")
	}
	for i := 0; i < 2; i++ {
		r, ok := next(s1)
		if !ok || r.Addr != 200+uint64(i) {
			t.Fatalf("cpu1 ref %d = %+v ok=%t", i, r, ok)
		}
	}
	if _, ok := next(s1); ok {
		t.Fatal("cpu1: refs after close")
	}
	if got := p.Sent(); got != 7 {
		t.Fatalf("Sent = %d, want 7", got)
	}
	if p.PeakPendingRefs() == 0 {
		t.Fatal("PeakPendingRefs = 0, want > 0")
	}
}

// TestChunkPipelineStarvationEscape pins the deadlock-freedom rule:
// with a tiny budget, a producer that floods one CPU's queue while the
// consumer waits on a different, empty queue must be allowed to
// overshoot the budget and feed the starving consumer.
func TestChunkPipelineStarvationEscape(t *testing.T) {
	p := NewChunkPipeline(2, 1) // budget of one ref: everything overshoots
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The generation order the real producer uses: all of CPU 0's
		// quantum, then CPU 1's. The consumer below starts with CPU 1.
		for i := 0; i < 8; i++ {
			if !p.Send(0, mkChunk(0, uint64(i*10), 4)) {
				return
			}
		}
		p.Send(1, mkChunk(1, 1000, 4))
		p.Close()
	}()
	s1 := p.Source(1)
	got := make(chan Ref, 1)
	go func() {
		r, _ := next(s1) // blocks until the producer reaches CPU 1
		got <- r
	}()
	select {
	case r := <-got:
		if r.Addr != 1000 {
			t.Fatalf("cpu1 first ref = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: consumer starved while producer parked on budget")
	}
	// Drain everything so the producer exits and chunks recycle.
	s0 := p.Source(0)
	for {
		if _, ok := next(s0); !ok {
			break
		}
	}
	for {
		if _, ok := next(s1); !ok {
			break
		}
	}
	<-done
}

func TestChunkPipelineAbortReleasesProducer(t *testing.T) {
	p := NewChunkPipeline(1, 2)
	blocked := make(chan struct{})
	rejected := make(chan bool, 1)
	go func() {
		p.Send(0, mkChunk(0, 0, 4)) // over budget immediately
		close(blocked)
		rejected <- !p.Send(0, mkChunk(0, 10, 4)) // parks, then aborts
	}()
	<-blocked
	time.Sleep(10 * time.Millisecond) // let the second Send park
	p.Abort()
	select {
	case r := <-rejected:
		if !r {
			t.Fatal("Send after Abort returned true")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not release the blocked producer")
	}
	if _, ok := p.recv(0); ok {
		t.Fatal("recv delivered a chunk after Abort")
	}
	if p.Send(0, nil) {
		t.Fatal("empty Send after Abort should report abort")
	}
}

// TestChunkPipelineConcurrent hammers the pipeline with a realistic
// shape — one producer, one consumer goroutine draining all CPUs in a
// skewed order — under the race detector.
func TestChunkPipelineConcurrent(t *testing.T) {
	const cpus, chunks, per = 4, 64, 32
	p := NewChunkPipeline(cpus, per) // tight budget forces escapes
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < chunks; i++ {
			for c := 0; c < cpus; c++ {
				if !p.Send(c, mkChunk(uint8(c), uint64(i*per), per)) {
					return
				}
			}
		}
		p.Close()
	}()
	srcs := make([]*ChunkSource, cpus)
	for c := range srcs {
		srcs[c] = p.Source(c)
	}
	counts := make([]int, cpus)
	// Drain in a deliberately skewed order: exhaust CPU 3 first.
	for c := cpus - 1; c >= 0; c-- {
		for {
			if _, ok := next(srcs[c]); !ok {
				break
			}
			counts[c]++
		}
	}
	wg.Wait()
	for c, n := range counts {
		if n != chunks*per {
			t.Fatalf("cpu %d consumed %d refs, want %d", c, n, chunks*per)
		}
	}
	if got := p.Sent(); got != chunks*per*cpus {
		t.Fatalf("Sent = %d, want %d", got, chunks*per*cpus)
	}
}
