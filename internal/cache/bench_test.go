package cache

import (
	"testing"

	"oscachesim/internal/coherence"
)

// benchAddrs is the address stream every lookup benchmark cycles
// through: one address per line of a 32 KB region, so a 32 KB cache
// holds them all and the probes hit every set.
const benchAddrs = 32 * 1024 / 16

// BenchmarkLookup measures one probe of the cache array on the machine's
// direct-mapped L1D geometry (hit and miss) and on a 4-way geometry of
// the same size (hit). An op is one Lookup.
func BenchmarkLookup(b *testing.B) {
	fourWay := Config{Name: "4way", Size: 32 * 1024, LineSize: 16, Assoc: 4}
	cases := []struct {
		name string
		cfg  Config
		// miss probes addresses one cache size above the filled ones:
		// the same sets, other tags.
		miss bool
	}{
		{"dm-hit", l1dConfig(), false},
		{"dm-miss", l1dConfig(), true},
		{"4way-hit", fourWay, false},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := New(tc.cfg)
			for i := uint64(0); i < benchAddrs; i++ {
				c.Fill(i*16, coherence.Shared, 0)
			}
			var off uint64
			if tc.miss {
				off = tc.cfg.Size
			}
			b.ReportAllocs()
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := c.Lookup(off + uint64(i)%benchAddrs*16); ok {
					hits++
				}
			}
			want := b.N
			if tc.miss {
				want = 0
			}
			if hits != want {
				b.Fatalf("%d hits, want %d", hits, want)
			}
		})
	}
}

// BenchmarkFill measures one fill of the direct-mapped L1D that evicts
// a valid line: two address ranges one cache size apart take turns on
// every set. An op is one Fill.
func BenchmarkFill(b *testing.B) {
	cfg := l1dConfig()
	c := New(cfg)
	for i := uint64(0); i < benchAddrs; i++ {
		c.Fill(i*16, coherence.Shared, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint64(i)
		round := n/benchAddrs + 1
		c.Fill(round&1*cfg.Size+n%benchAddrs*16, coherence.Exclusive, 0)
	}
	if _, ev := c.Stats(); ev != uint64(b.N) {
		b.Fatalf("%d evictions, want %d", ev, b.N)
	}
}
