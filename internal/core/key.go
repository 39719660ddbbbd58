package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"oscachesim/internal/sim"
)

// SimVersion names the current simulation semantics. It participates in
// every canonical run key, so caches (the result store behind every
// experiment.Runner and the ossimd daemon, and campaign cell
// deduplication — which groups grid cells by this key and simulates
// each group once) are
// invalidated wholesale when the simulator's behavior changes. Bump it on any change that can shift a
// simulation result: machine timing, coherence protocol, workload
// generation, kernel layout. TestSimVersionTracksGoldens enforces the
// rule for everything the paper and scenario goldens capture: it pins
// this version together with a digest of those files.
const SimVersion = "oscachesim/sim/v1"

// CanonicalKey returns a content address for the run this configuration
// describes: a hex SHA-256 over SimVersion and every result-affecting
// field of the configuration and its machine. Two configurations with
// equal keys produce byte-identical Outcomes, so the key is safe to
// deduplicate and cache on, across processes and restarts.
//
// Runtime plumbing (Monitor, Progress) is excluded — it cannot change
// results. So is the deprecated, ignored Stream: Run streams every
// run.
// The Machine's Attrs are also excluded: Run derives them from hashed
// fields (System, UpdateSet, PureUpdate), overwriting whatever the
// caller supplied.
//
// Scale and Seed are hashed after the same normalization Run applies
// (Seed 0 means 1). Scale 0 means "workload default" and hashes as 0:
// it is a distinct key from the workload's literal default scale, which
// costs at most one redundant simulation, never a wrong cache hit.
func (cfg RunConfig) CanonicalKey() string {
	h := sha256.New()
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	wname := string(cfg.Workload)
	if cfg.Scenario != nil {
		// A scenario run is keyed by the spec's content hash (appended
		// below), not the Workload label: Run overwrites the label, so
		// hashing it would make pre- and post-normalization configs of
		// the same run disagree.
		wname = "!scenario"
	}
	// The literal tc=false stands where a retired conflict-census flag
	// was hashed, so every key stored before its removal still matches.
	fmt.Fprintf(h, "v=%s|w=%s|sys=%d|scale=%d|seed=%d|dc=%t|pu=%t|pd=%d|tc=false",
		SimVersion, wname, cfg.System, cfg.Scale, seed,
		cfg.DeferredCopy, cfg.PureUpdate, cfg.PrefDist)
	if cfg.Scenario != nil {
		fmt.Fprintf(h, "|scen=%s", cfg.Scenario.Hash())
	}
	if cfg.UpdateSet == nil {
		// nil means "the system's own protocol selection"; an empty
		// non-nil set overrides it to "update nothing" — distinct runs.
		io.WriteString(h, "|us=nil")
	} else {
		fmt.Fprintf(h, "|us=%d", len(cfg.UpdateSet))
		for _, page := range cfg.UpdateSet {
			fmt.Fprintf(h, ",%d", page)
		}
	}
	if cfg.Machine == nil {
		io.WriteString(h, "|m=default")
	} else {
		hashMachine(h, *cfg.Machine)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashMachine writes every result-affecting machine parameter. Attrs
// is deliberately omitted (see CanonicalKey).
func hashMachine(w io.Writer, p sim.Params) {
	fmt.Fprintf(w, "|m=cpus=%d", p.NumCPUs)
	fmt.Fprintf(w, ";l1i=%d/%d/%d;l1d=%d/%d/%d;l2=%d/%d/%d",
		p.L1I.Size, p.L1I.LineSize, p.L1I.Assoc,
		p.L1D.Size, p.L1D.LineSize, p.L1D.Assoc,
		p.L2.Size, p.L2.LineSize, p.L2.Assoc)
	fmt.Fprintf(w, ";wb=%d/%d;lat=%d/%d/%d;c2c=%d;l2w=%d",
		p.L1WriteBufDepth, p.L2WriteBufDepth,
		p.L1HitCycles, p.L2HitCycles, p.MemCycles,
		p.C2CCycles, p.L2WriteCycles)
	fmt.Fprintf(w, ";bus=%+v;mshr=%d;blk=%d;pbl=%d",
		p.Bus, p.MSHREntries, p.Block, p.PrefBufLines)
	// The literal max=0 stands where a retired reference limit was
	// hashed, so every key stored before its removal still matches.
	fmt.Fprintf(w, ";dma=%d/%d/%d;sync=%d;max=0",
		p.DMASetupCycles, p.DMACyclesPer8B, p.DMASnoopPenalty,
		p.SyncGrantCycles)
	fmt.Fprintf(w, ";coh=%d;l1wb=%t", p.Coherence, p.L1WriteBack)
}
