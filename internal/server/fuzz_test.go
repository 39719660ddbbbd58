package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/sim"
)

// runRequestSeeds are the /v1/runs bodies both run-request fuzz
// targets start from.
var runRequestSeeds = []string{
	``,
	`{}`,
	`{"workload":"TRFD_4","system":"Base"}`,
	`{"workload":"TRFD_4","system":"Base","scale":2,"seed":7}`,
	`{"workload":"TRFD+Make","system":"Blk_Dma","deferred_copy":true}`,
	`{"workload":"TRFD_4","system":"BCoh_RelUp","pure_update":true,"timeout_ms":1000}`,
	`{"workload":"TRFD_4","system":"Base","machine":{"l1d_size_kb":32,"l1d_line":64,"l2_line":64}}`,
	`{"workload":"TRFD_4","system":"Base","machine":{"num_cpus":8,"mshr":4,"mem_cycles":50}}`,
	`{"workload":"nope","system":"Base"}`,
	`{"workload":"TRFD_4","system":"Base","scale":-1}`,
	`{"workload":"TRFD_4","system":"Base","machine":{"l1d_line":24}}`,
	`{"workload":"TRFD_4","system":"Base","bogus":true}`,
	`{"workload":"TRFD_4","system":"Base"} trailing`,
	`[1,2,3]`,
	`"just a string"`,
	`{"workload":"TRFD_4","system":"Base","machine":{"l1d_size_kb":18446744073709551615}}`,
	`{"workload":"Shell","system":"Base","scale":1,"machine":{"mshr":1125899906842624}}`,
	`{"scenario":{"preset":"fs-naive"},"system":"Base"}`,
	`{"scenario":{"spec":{"name":"t","phases":[{"rounds":1,"sharing_degree":2,"shared_frac":0.3}]}},"system":"Base"}`,
	`{"scenario":{"spec":{"name":"t","phases":[{"rounds":0}]}},"system":"Base"}`,
	`{"scenario":{"preset":"fs-naive","spec":{"name":"t","phases":[{"rounds":1}]}},"system":"Base"}`,
	`{"workload":"TRFD_4","scenario":{"preset":"fs-naive"},"system":"Base"}`,
	`{"scenario":{},"system":"Base"}`,
	`{"scenario":{"spec":{"name":"t","phases":[{"rounds":4096}]}},"system":"Base","scale":1000}`,
}

// FuzzDecodeRunRequest drives the /v1/runs body decoder with arbitrary
// bytes. The contract under fuzzing: decodeRunRequest never panics, and
// every rejection is a *RequestError (the handler's 400 path) — a bare
// error would surface as a 500 for what is always a client problem.
// Accepted bodies must round-trip into a configuration whose machine,
// if overridden, passed sim.Params.Validate, so a fuzz-crafted geometry
// can never reach the simulator.
func FuzzDecodeRunRequest(f *testing.F) {
	for _, s := range runRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, rr, err := decodeRunRequest(bytes.NewReader(data))
		if err != nil {
			if !isRequestError(err) {
				t.Fatalf("decode error is not a RequestError: %T %v", err, err)
			}
			return
		}
		if rr == nil {
			t.Fatal("accepted body returned nil request")
		}
		// An accepted configuration is fully validated: the workload and
		// system parse, the scale is bounded, and any machine override
		// satisfies the simulator's own invariants.
		if cfg.Scale < 0 || cfg.Scale > maxScale {
			t.Fatalf("accepted scale %d out of range", cfg.Scale)
		}
		if cfg.Seed < 0 {
			t.Fatalf("accepted negative seed %d", cfg.Seed)
		}
		if cfg.Machine != nil {
			if verr := cfg.Machine.Validate(); verr != nil {
				t.Fatalf("accepted invalid machine: %v", verr)
			}
		}
		if cfg.Scenario != nil {
			// An accepted scenario is fully validated and bounded.
			if verr := cfg.Scenario.Validate(); verr != nil {
				t.Fatalf("accepted invalid scenario: %v", verr)
			}
			eff := cfg.Scale
			if eff <= 0 {
				eff = 1
			}
			if cfg.Scenario.TotalRounds()*eff > maxScenarioRounds {
				t.Fatalf("accepted scenario of %d effective rounds", cfg.Scenario.TotalRounds()*eff)
			}
		}
		// The canonical key must be computable for anything accepted —
		// it is the job's identity.
		if key := cfg.CanonicalKey(); len(key) != 64 {
			t.Fatalf("canonical key %q is not a sha256 hex digest", key)
		}
	})
}

// FuzzRunRequest runs what FuzzDecodeRunRequest decodes: every body
// decodeRunRequest accepts goes through core.Run, shrunk to a fuzzing
// budget (scale at most 2, at most 8 CPUs, caches no larger than the
// paper machine's) and under a deadline. The contract: no panic, and
// every error is a request error or the deadline's cancellation.
func FuzzRunRequest(f *testing.F) {
	for _, s := range runRequestSeeds {
		f.Add([]byte(s))
	}
	paper := sim.DefaultParams()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, _, err := decodeRunRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if cfg.Scale <= 0 || cfg.Scale > 2 {
			cfg.Scale = 2
		}
		// Round 0 is generated whole before the deadline can stop the
		// run, so a scenario's length is bounded up front.
		if cfg.Scenario != nil && cfg.Scenario.EffectiveUserRefs()*cfg.Scale > 1<<17 {
			return
		}
		if m := cfg.Machine; m != nil {
			m.NumCPUs = min(m.NumCPUs, 8)
			m.L1I.Size = min(m.L1I.Size, paper.L1I.Size)
			m.L1D.Size = min(m.L1D.Size, paper.L1D.Size)
			m.L2.Size = min(m.L2.Size, paper.L2.Size)
			if m.Validate() != nil {
				return // the clamp, not the request, broke the geometry
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := core.Run(ctx, cfg); err != nil && !isRequestError(err) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("accepted request failed to run: %v", err)
		}
	})
}

// FuzzDecodeCampaignRequest drives the /v1/campaigns body decoder and
// planner — the daemon's only grid input surface — with arbitrary
// bytes. The contract: decodeJSON plus CampaignRequest.plan never
// panic, every rejection satisfies isRequestError (a 400, never a
// 500), and every accepted plan stays within maxCampaignCells with each
// cell's machine, when it carries one, passing sim.Params.Validate.
func FuzzDecodeCampaignRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		// The README/API.md worked example (Figure 3 at 4 and 16 CPUs).
		`{"workload":"TRFD_4","systems":["Base","BCPref"],"cpus":[4,16],"coherence":["snoop","directory"],"scale":5,"seed":1,"diff":{"axis":"coherence","from":"snoop","to":"directory"}}`,
		// The two former /v1/sweeps bodies (now campaign bodies).
		`{"workload":"TRFD_4","systems":["Base","Blk_Dma"],"sizes_kb":[16,32,64]}`,
		`{"scenario":{"preset":"sharing"},"sharers":[1,2,4,8,16],"systems":["Base"],"machine":{"num_cpus":16,"coherence":"directory"}}`,
		`{"workloads":["TRFD_4","Shell"],"systems":["Base"],"line_sizes":[16,64],"l2_line":64,"row_axis":"line_b"}`,
		`{"workload":"TRFD_4","systems":["Base"],"line_sizes":[16,32],"machine":{"l2_line":64}}`,
		`{"workload":"TRFD_4","systems":["Base"],"cpus":[0]}`,
		`{"workload":"TRFD_4","systems":["Base"],"cpus":[65],"coherence":["snoop"]}`,
		`{"workload":"TRFD_4","systems":["Base"],"sizes_kb":[0]}`,
		`{"workload":"TRFD_4","systems":["Base"],"sharers":[2]}`,
		`{"scenario":{"preset":"sharing"},"systems":["Base"],"sharers":[-1,8]}`,
		`{"workload":"TRFD_4","systems":["Base","Base","Base","Base","Base","Base","Base","Base"],"cpus":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33]}`,
		`{"workload":"TRFD_4","systems":["Base"],"diff":{"axis":"system","from":"Base","to":"BCPref"}}`,
		`{"workload":"TRFD_4","systems":["Base"],"intra_workers":2}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cr CampaignRequest
		if err := decodeJSON(bytes.NewReader(data), &cr); err != nil {
			if !isRequestError(err) {
				t.Fatalf("decode error is not a request error: %T %v", err, err)
			}
			return
		}
		p, _, err := cr.plan()
		if err != nil {
			if !isRequestError(err) {
				t.Fatalf("plan error is not a request error: %T %v", err, err)
			}
			return
		}
		if len(p.Cells) == 0 || len(p.Cells) > maxCampaignCells {
			t.Fatalf("accepted plan of %d cells, want 1..%d", len(p.Cells), maxCampaignCells)
		}
		for _, c := range p.Cells {
			if c.Cfg.Machine != nil {
				if verr := c.Cfg.Machine.Validate(); verr != nil {
					t.Fatalf("accepted cell %v with an invalid machine: %v", c.Coords, verr)
				}
			}
		}
	})
}

// FuzzMachineSpec drives the machine-spec decoder with arbitrary
// bytes. Its contract: MachineSpec.toParams never panics, every
// rejection is a *RequestError, and anything accepted satisfies
// sim.Params.Validate — in particular the processor-count ceiling of
// the selected coherence protocol, so a fuzz-crafted spec can neither
// put 65 CPUs on the snooping bus nor 257 on the directory machine —
// and keeps every buffer capacity within maxBufDepth.
func FuzzMachineSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		// The paper's machine, spelled out.
		`{"num_cpus":4,"l1d_size_kb":32,"l1d_line":16,"l1d_assoc":1,"l1i_size_kb":16,"l1i_line":16,"l2_size_kb":256,"l2_line":32,"l2_assoc":1,"mshr":8,"l1_wb_depth":4,"l2_wb_depth":8,"mem_cycles":51}`,
		// Directory machines past the snooping ceiling.
		`{"num_cpus":16,"coherence":"directory"}`,
		`{"num_cpus":256,"coherence":"dir","l1_writeback":true}`,
		`{"num_cpus":64,"coherence":"snoop"}`,
		`{"num_cpus":65,"coherence":"snoop"}`,
		`{"num_cpus":65}`,
		`{"num_cpus":257,"coherence":"directory"}`,
		`{"coherence":"token-ring"}`,
		`{"l1d_line":24}`,
		`{"l1d_assoc":3,"l1d_size_kb":32}`,
		`{"l2_line":8,"l1d_line":16}`,
		`{"l1_writeback":true}`,
		`{"num_cpus":-1}`,
		`{"l1d_size_kb":18446744073709551615}`,
		// Buffer capacities are allocated per CPU up front.
		`{"mshr":1125899906842624}`,
		`{"l1_wb_depth":1125899906842624}`,
		`{"l2_wb_depth":1125899906842624}`,
		`{"mshr":256,"l1_wb_depth":256,"l2_wb_depth":257}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m MachineSpec
		if err := decodeJSON(bytes.NewReader(data), &m); err != nil {
			if !isRequestError(err) {
				t.Fatalf("decode error is not a RequestError: %T %v", err, err)
			}
			return
		}
		p, err := m.toParams()
		if err != nil {
			if !isRequestError(err) {
				t.Fatalf("toParams error is not a RequestError: %T %v", err, err)
			}
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted machine fails validation: %v", verr)
		}
		for _, d := range []int{p.MSHREntries, p.L1WriteBufDepth, p.L2WriteBufDepth} {
			if d > maxBufDepth {
				t.Fatalf("accepted buffer capacity %d over the bound %d", d, maxBufDepth)
			}
		}
		switch p.Coherence {
		case sim.CoherenceSnoop:
			if p.NumCPUs > sim.MaxSnoopCPUs {
				t.Fatalf("accepted %d CPUs on the snooping bus", p.NumCPUs)
			}
		case sim.CoherenceDirectory:
			if p.NumCPUs > sim.MaxDirectoryCPUs {
				t.Fatalf("accepted %d CPUs on the directory machine", p.NumCPUs)
			}
		default:
			t.Fatalf("accepted unknown coherence kind %v", p.Coherence)
		}
		// The accepted spec must also be JSON-re-encodable (the daemon
		// echoes requests back in job listings).
		if _, err := json.Marshal(&m); err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
	})
}
