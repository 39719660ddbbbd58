// Package cache models the SRAM cache arrays of the simulated machine:
// a generic set-associative (direct-mapped by default) cache with
// coherence-state tags, the MSHR file that makes the secondary cache
// lockup-free, and the two write buffers of the paper's hierarchy (a
// 4-deep word-wide buffer between the primary and secondary caches and
// an 8-deep line-wide buffer between the secondary cache and the bus).
//
// Timing is not modeled here; internal/sim owns the clock and asks the
// arrays pure state questions.
package cache

import (
	"fmt"
	"math/bits"

	"oscachesim/internal/coherence"
)

// Config describes one cache array.
type Config struct {
	// Name appears in diagnostics ("L1D", "L2").
	Name string
	// Size is the capacity in bytes.
	Size uint64
	// LineSize is the line length in bytes (a power of two).
	LineSize uint64
	// Assoc is the set associativity; 1 means direct-mapped, which is
	// what the simulated machine uses throughout.
	Assoc int
}

// Validate checks the geometry for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Size == 0 || c.LineSize == 0:
		return fmt.Errorf("cache %s: zero size or line size", c.Name)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	case c.Assoc <= 0:
		return fmt.Errorf("cache %s: associativity %d", c.Name, c.Assoc)
	case c.Size%(c.LineSize*uint64(c.Assoc)) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.Size)
	}
	sets := c.Size / (c.LineSize * uint64(c.Assoc))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Lines returns the total number of lines the cache holds.
func (c Config) Lines() int { return int(c.Size / c.LineSize) }

// Line is one cache line's tag state. Tag holds the full line-aligned
// address (not a truncated tag), which costs nothing in a simulator and
// keeps victim identification trivial.
type Line struct {
	Tag   uint64
	State coherence.State
	// FilledByBlock records the block-operation id whose fill brought
	// this line in (0 = ordinary fill). The displacement-miss
	// classification of Section 4.1.3 needs to know, when a line is
	// evicted, whether a block operation evicted it.
	FilledByBlock uint32
	lastUse       uint64
}

// Victim describes a line evicted by a Fill.
type Victim struct {
	Addr          uint64
	State         coherence.State
	FilledByBlock uint32
	// Valid is false when the fill found an empty way.
	Valid bool
}

// Cache is one cache array. It is not safe for concurrent use; the
// simulator is single-goroutine by design (cycle-ordered).
//
// Set and tag decode is fully precomputed at construction (line mask,
// set shift, set mask). Lookup and Peek are small enough for the
// compiler to inline at every call site, so a probe of the
// direct-mapped geometry the simulated machine uses throughout is one
// index computation and one compare, with no call.
type Cache struct {
	cfg       Config
	lines     []Line // sets * assoc, way-major within a set
	lineMask  uint64 // LineSize-1, precomputed for LineAddr
	setShift  uint
	setMask   uint64
	assoc     int
	clock     uint64
	fills     uint64
	evictions uint64
}

// New builds a cache from a validated config; it panics on an invalid
// geometry since configs are static in this codebase.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Size / (cfg.LineSize * uint64(cfg.Assoc))
	return &Cache{
		cfg:      cfg,
		lines:    make([]Line, cfg.Size/cfg.LineSize),
		lineMask: cfg.LineSize - 1,
		setShift: uint(bits.TrailingZeros64(cfg.LineSize)),
		setMask:  sets - 1,
		assoc:    cfg.Assoc,
	}
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ c.lineMask }

// set returns the slice of ways forming addr's set.
func (c *Cache) set(addr uint64) []Line {
	idx := (addr >> c.setShift) & c.setMask
	base := int(idx) * c.assoc
	return c.lines[base : base+c.assoc]
}

// Lookup returns the line holding addr, if it is present in a valid
// state. The returned pointer stays valid until the next Fill and may
// be used to mutate the line's coherence state in place. Lookup
// refreshes the line's replacement age; a direct-mapped cache keeps no
// ages, since ages are compared only among the ways of one set.
func (c *Cache) Lookup(addr uint64) (*Line, bool) {
	// The set is decoded here rather than by c.set, and validity is
	// tested without State.Valid, to keep Lookup within the inlining
	// budget.
	tag := addr &^ c.lineMask
	base := int((addr>>c.setShift)&c.setMask) * c.assoc
	set := c.lines[base : base+c.assoc]
	for i := range set {
		if set[i].Tag == tag && set[i].State != coherence.Invalid {
			if len(set) > 1 {
				c.clock++
				set[i].lastUse = c.clock
			}
			return &set[i], true
		}
	}
	return nil, false
}

// Peek is Lookup without the replacement-age refresh, for snooping and
// diagnostics.
func (c *Cache) Peek(addr uint64) (*Line, bool) {
	tag := addr &^ c.lineMask
	set := c.set(addr)
	for i := range set {
		if set[i].Tag == tag && set[i].State.Valid() {
			return &set[i], true
		}
	}
	return nil, false
}

// State returns the coherence state of addr's line (Invalid when not
// present).
func (c *Cache) State(addr uint64) coherence.State {
	if l, ok := c.Peek(addr); ok {
		return l.State
	}
	return coherence.Invalid
}

// Fill installs addr's line in the given state, evicting the LRU way if
// the set is full, and returns the victim. filledByBlock tags the fill
// with the block operation that caused it (0 for ordinary fills).
func (c *Cache) Fill(addr uint64, st coherence.State, filledByBlock uint32) Victim {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: Fill with invalid state", c.cfg.Name))
	}
	tag := c.LineAddr(addr)
	set := c.set(addr)
	victimIdx := 0
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == tag {
			// Re-fill of a present line: just update in place.
			c.clock++
			set[i].State = st
			set[i].FilledByBlock = filledByBlock
			set[i].lastUse = c.clock
			return Victim{}
		}
		if !set[i].State.Valid() {
			victimIdx = i
		} else if set[victimIdx].State.Valid() && set[i].lastUse < set[victimIdx].lastUse {
			victimIdx = i
		}
	}
	v := Victim{}
	old := &set[victimIdx]
	if old.State.Valid() {
		v = Victim{Addr: old.Tag, State: old.State, FilledByBlock: old.FilledByBlock, Valid: true}
		c.evictions++
	}
	c.clock++
	c.fills++
	*old = Line{Tag: tag, State: st, FilledByBlock: filledByBlock, lastUse: c.clock}
	return v
}

// Invalidate removes addr's line and reports whether it was present,
// returning its prior state (for write-back decisions on snoop hits).
func (c *Cache) Invalidate(addr uint64) (coherence.State, bool) {
	if l, ok := c.Peek(addr); ok {
		st := l.State
		l.State = coherence.Invalid
		return st, true
	}
	return coherence.Invalid, false
}

// Stats returns lifetime fill and eviction counts.
func (c *Cache) Stats() (fills, evictions uint64) { return c.fills, c.evictions }

// ForEachValid calls fn for every valid line; used by inclusion checks
// in tests.
func (c *Cache) ForEachValid(fn func(Line)) {
	for _, l := range c.lines {
		if l.State.Valid() {
			fn(l)
		}
	}
}
