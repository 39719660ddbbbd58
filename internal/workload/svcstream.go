package workload

import "math/rand"

// The per-round service stream. Every processor draws its kernel-service
// details from the same per-round random stream, so gang-scheduled
// quanta stay balanced. Seeding a math/rand source costs far more than
// the few hundred draws a round takes from it, so the round seeds one
// source, records the Uint64 values drawn from it, and each processor
// replays the record from its start through its own reader.
//
// The replay is exact: rand.Rand draws only through its source's Int63
// and Uint64, and the seeded source's Int63 is its Uint64 with the top
// bit cleared, so a reader returns what a freshly seeded rand.Rand
// would, whatever mix of draws the caller makes.

// svcStream is one round's recorded service stream.
type svcStream struct {
	seed int64
	// src is seeded on the round's first draw, so a round that draws
	// nothing seeds nothing. It is built once and reseeded in place.
	src rand.Source64
	// vals holds every value drawn from src this round, in order.
	vals []uint64
}

// reset starts a new round whose stream is seeded with seed.
func (s *svcStream) reset(seed int64) {
	s.seed, s.vals = seed, s.vals[:0]
}

// at returns the stream's i-th value, drawing it if no reader has yet.
// i is at most len(s.vals): readers advance one value at a time.
func (s *svcStream) at(i int) uint64 {
	if i == len(s.vals) {
		if i == 0 { // the round's first draw
			if s.src == nil {
				s.src = rand.NewSource(s.seed).(rand.Source64)
				// A classic round draws several hundred values.
				s.vals = make([]uint64, 0, 1024)
			} else {
				s.src.Seed(s.seed)
			}
		}
		s.vals = append(s.vals, s.src.Uint64())
	}
	return s.vals[i]
}

// svcReader is one processor's position in the round's service
// stream: a rand.Source64 that replays the stream from its start.
type svcReader struct {
	s   *svcStream
	pos int
}

func (r *svcReader) Uint64() uint64 {
	v := r.s.at(r.pos)
	r.pos++
	return v
}

func (r *svcReader) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Seed is part of rand.Source; a reader is repositioned by rewind, not
// reseeded.
func (r *svcReader) Seed(int64) { panic("workload: svcReader is not seedable") }

// rewind moves the reader back to the start of its stream.
func (r *svcReader) rewind() { r.pos = 0 }
