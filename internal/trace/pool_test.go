package trace

import "testing"

// isolatePool empties the trace pool for the test and restores its
// previous contents afterwards.
func isolatePool(t *testing.T) {
	t.Helper()
	refPool.Lock()
	saved := refPool.batches
	refPool.batches = nil
	refPool.Unlock()
	t.Cleanup(func() {
		refPool.Lock()
		refPool.batches = saved
		refPool.Unlock()
	})
}

// TestGetBatchBestFit pins that GetBatch hands out the smallest pooled
// batch that fits: a chunk-sized request must not take a round-0-sized
// batch while a chunk-sized one is pooled.
func TestGetBatchBestFit(t *testing.T) {
	isolatePool(t)
	PutBatch(make([]Ref, 0, 8192))
	PutBatch(make([]Ref, 0, 52_000))
	PutBatch(make([]Ref, 0, 16_384))

	for _, c := range []struct{ want, got int }{
		{8000, 8192},
		{8192, 16_384},
		{20_000, 52_000},
	} {
		b := GetBatch(c.want)
		if len(b) != 0 || cap(b) != c.got {
			t.Fatalf("GetBatch(%d): len %d cap %d, want len 0 cap %d", c.want, len(b), cap(b), c.got)
		}
	}
	if b := GetBatch(1); cap(b) != 1 {
		t.Fatalf("GetBatch(1) from an empty pool: cap %d, want a fresh batch of 1", cap(b))
	}
}
