package trace

import "sync"

// refPool recycles the large per-CPU reference batches built by the
// workload generator. A sweep builds and discards one multi-megabyte
// trace per run configuration; recycling the backing arrays keeps that
// churn off the garbage collector, which matters once runs execute
// concurrently on every core.
//
// The pool is an explicit bounded free-list rather than a sync.Pool: a
// sweep's allocation rate forces frequent collections, and a sync.Pool
// is emptied by every second GC — exactly when reuse matters most, the
// batches were gone and every run rebuilt its trace from fresh memory.
// The explicit list survives collection, is bounded (maxPooledBatches
// entries, maxPooledRefs references each) so one outsized run cannot
// pin unbounded memory, and prefers evicting its smallest entry so the
// arrays that serve the widest range of requests stay resident.
var refPool struct {
	sync.Mutex
	batches [][]Ref
}

const (
	// maxPooledBatches bounds the free-list length; a parallel sweep
	// releases at most a few batches per worker between builds.
	maxPooledBatches = 64
	// maxPooledRefs bounds one pooled batch's capacity: 1<<24 refs ×
	// 40 B/ref (unsafe.Sizeof(Ref{}), pinned by TestRefSize) is 640 MiB.
	// Larger arrays come from one-off giant runs and are left to the
	// collector. The free-list as a whole may therefore pin up to
	// maxPooledBatches × 640 MiB = 40 GiB in the worst case.
	maxPooledRefs = 1 << 24
)

// GetBatch returns an empty Ref slice with capacity at least capacity,
// reusing the smallest previously released batch that is large enough,
// so a small request does not take a batch a larger one could use.
func GetBatch(capacity int) []Ref {
	refPool.Lock()
	best := -1
	for i, b := range refPool.batches {
		if cap(b) >= capacity && (best < 0 || cap(b) < cap(refPool.batches[best])) {
			best = i
		}
	}
	if best < 0 {
		refPool.Unlock()
		return make([]Ref, 0, capacity)
	}
	b := refPool.batches[best]
	last := len(refPool.batches) - 1
	refPool.batches[best] = refPool.batches[last]
	refPool.batches[last] = nil
	refPool.batches = refPool.batches[:last]
	refPool.Unlock()
	return b[:0]
}

// PutBatch releases a batch back to the pool. The caller must not use
// the slice (or any alias of it) afterwards: the backing array will be
// handed to a future GetBatch caller and overwritten. When the pool is
// full, the smallest batch (incoming included) is dropped.
func PutBatch(b []Ref) {
	if cap(b) == 0 || cap(b) > maxPooledRefs {
		return
	}
	b = b[:0]
	refPool.Lock()
	defer refPool.Unlock()
	if len(refPool.batches) < maxPooledBatches {
		refPool.batches = append(refPool.batches, b)
		return
	}
	smallest := 0
	for i, p := range refPool.batches {
		if cap(p) < cap(refPool.batches[smallest]) {
			smallest = i
		}
	}
	if cap(refPool.batches[smallest]) < cap(b) {
		refPool.batches[smallest] = b
	}
}
