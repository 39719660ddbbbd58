package workload

import (
	"math"
	"math/rand"
	"testing"
)

// draw makes one draw of the given kind and returns its bits.
func draw(r *rand.Rand, kind int) uint64 {
	switch kind {
	case 0:
		return uint64(r.Intn(1000))
	case 1:
		return uint64(r.Intn(1<<40 + 17)) // Int63n under Intn
	case 2:
		return uint64(r.Int31n(77))
	case 3:
		return math.Float64bits(r.Float64())
	case 4:
		return uint64(r.Int63())
	default:
		return r.Uint64()
	}
}

// TestServiceStreamReplaysSeededRand pins that every reader of a
// recorded round stream draws exactly what a freshly seeded rand.Rand
// does, whatever mix of draws it makes and however the readers
// interleave, across rounds that reseed the stream in place.
func TestServiceStreamReplaysSeededRand(t *testing.T) {
	const readers = 4
	var s svcStream
	rs := make([]svcReader, readers)
	rngs := make([]*rand.Rand, readers)
	for i := range rs {
		rs[i].s = &s
		rngs[i] = rand.New(&rs[i])
	}
	mix := rand.New(rand.NewSource(99))
	for _, seed := range []int64{0, 1, 7*131071 + 38, -12345, 1<<40 + 3} {
		s.reset(seed)
		fresh := make([]*rand.Rand, readers)
		for i := range fresh {
			rs[i].rewind()
			fresh[i] = rand.New(rand.NewSource(seed))
		}
		for n := 0; n < 20_000; n++ {
			i, kind := mix.Intn(readers), mix.Intn(6)
			if got, want := draw(rngs[i], kind), draw(fresh[i], kind); got != want {
				t.Fatalf("seed %d, draw %d (reader %d, kind %d): replayed %#x, seeded %#x", seed, n, i, kind, got, want)
			}
		}
	}
}

// TestServiceStreamSeedsOnFirstDraw pins that a round that draws
// nothing from its stream seeds no source.
func TestServiceStreamSeedsOnFirstDraw(t *testing.T) {
	var s svcStream
	r := svcReader{s: &s}
	s.reset(5)
	r.rewind()
	if s.src != nil {
		t.Fatal("stream seeded before its first draw")
	}
	if got, want := r.Int63(), rand.NewSource(5).Int63(); got != want {
		t.Fatalf("first draw %d, want %d", got, want)
	}
	s.reset(6)
	if len(s.vals) != 0 {
		t.Fatal("reset kept the previous round's stream")
	}
}
