package check

import (
	"context"
	"strings"
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// dirMachine returns the paper's machine scaled to ncpus processors
// under directory coherence.
func dirMachine(ncpus int) *sim.Params {
	p := sim.DefaultParams()
	p.NumCPUs = ncpus
	p.Coherence = sim.CoherenceDirectory
	return &p
}

// TestDirectoryDifferential runs the extended oracle in lockstep with
// the directory-coherent machine beyond the snooping bus's reach. The
// 16-CPU leg covers the base system, the relocated+update kernel
// (whose Update page attribute the directory protocol must ignore)
// and the DMA engine (whose memory writes downgrade the owner); the
// 64-CPU leg is the scale stress and is skipped under -short.
func TestDirectoryDifferential(t *testing.T) {
	cases := []struct {
		name  string
		ncpus int
		sys   core.System
		w     workload.Name
		scale int
		long  bool
	}{
		{"16cpu/shell-base", 16, core.Base, workload.Shell, testScale, false},
		{"16cpu/shell-bcohrelup", 16, core.BCohRelUp, workload.Shell, testScale, false},
		{"16cpu/shell-blkdma", 16, core.BlkDma, workload.Shell, testScale, false},
		{"64cpu/shell-base", 64, core.Base, workload.Shell, 2, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("64-CPU differential skipped in -short mode")
			}
			o, err := Differential(context.Background(), core.RunConfig{
				Workload: tc.w, System: tc.sys, Scale: tc.scale, Seed: 1,
				Machine: dirMachine(tc.ncpus),
			})
			if err != nil {
				t.Fatal(err)
			}
			if o.Refs == 0 {
				t.Fatal("no references simulated")
			}
			if o.Counters.Bus.TotalTransactions() == 0 {
				t.Fatal("directory machine produced no home-node traffic")
			}
		})
	}
}

// dirTamperer corrupts the first directory-update event's sharer
// count before the oracle sees it.
type dirTamperer struct {
	inner    sim.Observer
	tampered bool
}

func (t *dirTamperer) Observe(ev sim.Event) {
	if !t.tampered && ev.Kind == sim.EvDirUpdate {
		ev.SharerCount++
		t.tampered = true
	}
	t.inner.Observe(ev)
}

// TestDirectoryOracleDetectsCorruptedEntry is the mutation smoke test
// for the directory tables: a corrupted sharer vector must surface as
// a divergence naming the directory check that failed.
func TestDirectoryOracleDetectsCorruptedEntry(t *testing.T) {
	var k *Checker
	var tam *dirTamperer
	_, err := core.Run(context.Background(), core.RunConfig{
		Workload: workload.Shell, System: core.Base, Scale: testScale, Seed: 1,
		Machine: dirMachine(16),
		Monitor: func(s *sim.Simulator) {
			k = Attach(s)
			tam = &dirTamperer{inner: k}
			s.SetObserver(tam)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tam.tampered {
		t.Fatal("directory run emitted no EvDirUpdate to corrupt")
	}
	divs := k.Report()
	if len(divs) == 0 {
		t.Fatal("oracle missed a corrupted directory entry")
	}
	if !strings.Contains(divs[0].What, "directory") {
		t.Errorf("first divergence is not a directory check: %v", divs[0])
	}
}
