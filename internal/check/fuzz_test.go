package check

import (
	"context"
	"errors"
	"testing"
	"time"

	"oscachesim/internal/cache"
	"oscachesim/internal/core"
	"oscachesim/internal/kernel"
	"oscachesim/internal/sim"
	"oscachesim/internal/trace"
)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// Fuzzed addresses crowd a few lines of three data pages (one of them
// a selective-update page) and one code page, so the tiny caches
// conflict, share and invalidate constantly.
var fuzzPages = [...]uint64{0x10_0000, 0x11_0000, kernel.UpdatePages()[1]}

const (
	fuzzCode     = 0x40_0000
	fuzzLockBase = 0x12_0000
	fuzzBarrier  = 0x13_0000
	fuzzRounds   = 48
)

func fuzzAddr(b byte) uint64 { return fuzzPages[int(b>>5)%len(fuzzPages)] + uint64(b&31)*8 }

// fuzzRun decodes a machine and one reference stream per processor.
// The machine has 2-4 processors with a 256 B primary data cache and
// a 1 KB secondary, either protocol, any system (so every block
// scheme and the update-page sets), and optionally a write-back
// primary and update on every page. The streams mix reads, writes,
// fetches and prefetches with DMA copies and zeros, cached block
// loops, balanced lock pairs and full-machine barriers — everything a
// trace file can carry within Replay's bounds, and nothing that can
// deadlock except by a simulator fault.
func fuzzRun(b *fuzzBytes) (core.RunConfig, [][]trace.Ref) {
	flags := b.next()
	p := sim.DefaultParams()
	p.NumCPUs = 2 + int(flags%3)
	if flags&4 != 0 {
		p.Coherence = sim.CoherenceDirectory
	}
	p.L1WriteBack = flags&8 != 0
	p.L1I = cache.Config{Name: "L1I", Size: 256, LineSize: 16, Assoc: 1}
	p.L1D = cache.Config{Name: "L1D", Size: 256, LineSize: 16, Assoc: 1 + int(flags>>4&1)}
	p.L2 = cache.Config{Name: "L2", Size: 1024, LineSize: 32, Assoc: 1 + int(flags>>5&1)}
	cfg := core.RunConfig{
		System:     core.Systems()[int(b.next())%int(core.NumSystems)],
		Machine:    &p,
		PureUpdate: flags&64 != 0,
	}

	per := make([][]trace.Ref, p.NumCPUs)
	block := uint32(0)
	for round := uint32(0); round < fuzzRounds && len(*b) > 0; round++ {
		for cpu := range per {
			refs := per[cpu]
			for n := b.next() % 8; n > 0; n-- {
				op, arg := b.next(), b.next()
				kind := trace.Kind(op >> 3 % 3)
				r := trace.Ref{CPU: uint8(cpu), Kind: kind, Addr: fuzzAddr(arg)}
				switch op % 8 {
				case 0:
					r.Op = trace.OpRead
				case 1:
					r.Op = trace.OpWrite
				case 2:
					r.Op, r.Addr = trace.OpInstr, fuzzCode+uint64(arg)*4
				case 3:
					r.Op = trace.OpPrefetch
				case 4, 5: // DMA copy, DMA zero
					block++
					lens := [...]uint32{16, 100, 512, 4096}
					r.Op, r.Block, r.Len = trace.OpBlockDMA, block, lens[arg%4]
					r.Addr = fuzzPages[int(arg>>2)%len(fuzzPages)] + uint64(arg>>4&7)*32
					if op%8 == 4 {
						r.Aux = fuzzPages[int(arg>>5+1)%len(fuzzPages)] + 0x800
					}
				case 6: // a cached block copy loop
					block++
					src, dst := fuzzAddr(arg), fuzzAddr(arg+97)
					for i := uint64(0); i < 4; i++ {
						refs = append(refs,
							trace.Ref{CPU: r.CPU, Kind: kind, Op: trace.OpRead, Addr: src + i*4, Block: block, Role: trace.BlockSrc, Len: 16},
							trace.Ref{CPU: r.CPU, Kind: kind, Op: trace.OpWrite, Addr: dst + i*4, Block: block, Role: trace.BlockDst, Len: 16})
					}
					continue
				case 7: // a critical section on one of three locks
					id := 1 + uint32(arg%3)
					lock := trace.Ref{CPU: r.CPU, Kind: kind, Op: trace.OpWrite, Addr: fuzzLockBase + uint64(id)*64,
						Class: trace.ClassLock, SyncID: id}
					lock.Sync = trace.SyncLockAcquire
					refs = append(refs, lock,
						trace.Ref{CPU: r.CPU, Kind: kind, Op: trace.OpRead, Addr: fuzzAddr(arg)},
						trace.Ref{CPU: r.CPU, Kind: kind, Op: trace.OpWrite, Addr: fuzzAddr(arg ^ 0x55)})
					lock.Sync = trace.SyncLockRelease
					r = lock
				}
				refs = append(refs, r)
			}
			per[cpu] = refs
		}
		if bar := b.next(); bar&1 != 0 {
			// Every processor arrives; Len 0 means "all of them".
			need := uint32(0)
			if bar&2 != 0 {
				need = uint32(p.NumCPUs)
			}
			for cpu := range per {
				per[cpu] = append(per[cpu], trace.Ref{CPU: uint8(cpu), Kind: trace.KindOS, Op: trace.OpWrite,
					Addr: fuzzBarrier, Class: trace.ClassBarrier, Sync: trace.SyncBarrier, SyncID: 1 + round, Len: need})
			}
		}
	}
	return cfg, per
}

// FuzzSimulate runs the simulator and the differential oracle in
// lockstep over adversarial machines and streams (see fuzzRun), the
// way a trace file reaches them: through core.Replay. The contract:
// no panic; the run ends, or fails with a typed error (a deadlock or a
// refused reference); and a finished run has no divergence, oracle
// tallies equal to the counters, and the conservation laws intact.
func FuzzSimulate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0, 7, 0, 1, 1, 0x22, 2, 3, 3, 0x40, 4, 0x81, 5, 0x13, 6, 0x31, 7, 0x02, 1})
	f.Add([]byte{0x0e, 6, 7, 4, 0x10, 5, 0x20, 6, 9, 7, 1, 1, 0xff, 3, 7, 0x21, 0, 4, 0xa0, 5, 0x51, 3})
	f.Add([]byte{0x7d, 7, 5, 1, 0x21, 9, 0x41, 0x11, 0x62, 4, 0x90, 1, 3, 0x33, 7, 2, 3})
	f.Add([]byte{0x36, 4, 7, 0x0c, 1, 0x14, 2, 0x1c, 3, 0x24, 4, 0x2c, 5, 0x34, 6, 0x3c, 7, 1, 6,
		3, 0x15, 0x99, 0x2d, 0x42, 0x07, 0x11, 2, 7, 0x0f, 0x88, 0x17, 0x77, 1, 0x1f, 0x66, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		cfg, per := fuzzRun(&in)
		var k *Checker
		cfg.Monitor = func(s *sim.Simulator) { k = Attach(s) }
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		o, err := core.Replay(ctx, cfg, per)
		if err != nil {
			var re *core.RefError
			if errors.Is(err, sim.ErrDeadlock) || errors.As(err, &re) {
				return
			}
			t.Fatalf("%s on %d CPUs: untyped error: %v", cfg.System, cfg.Machine.NumCPUs, err)
		}
		if err := k.Err(); err != nil {
			t.Fatalf("%s, machine %+v: %v", cfg.System, *cfg.Machine, err)
		}
		if err := k.VerifyCounters(o.Counters, o.Refs); err != nil {
			t.Fatalf("%s, machine %+v: %v", cfg.System, *cfg.Machine, err)
		}
		if err := VerifyOutcome(o); err != nil {
			t.Fatalf("%s, machine %+v: %v", cfg.System, *cfg.Machine, err)
		}
	})
}
