// Package scenario opens the workload space beyond the paper's four
// calibrated 1996 traces: a declarative, JSON-encoded workload
// specification that composes the existing kernel service emitters
// with synthetic user-level sharing and contention emitters. A Spec
// describes a multi-phase workload with tunable sharing degree,
// working-set size, false-sharing intensity and block-operation mix —
// enough to express the modern scenarios the related work studies
// (sharing-degree sweeps à la Yavits et al., contention taxonomies à
// la Ayyagari, and the gem5-bootcamp-style false-sharing/chunking
// microbenchmark trio), while every generated trace still runs under
// the internal/check differential oracle.
//
// The package deliberately knows nothing about the simulator or the
// run pipeline: it defines the Spec, its strict decoding and
// validation, the built-in presets, and a Generator that emits
// per-CPU reference streams through kernel.Emitter. The workload
// package drives the Generator (BuildSpec/StreamSpec) and the core
// package hashes the Spec into canonical run keys.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Validation bounds. They keep one spec from describing an absurd
// simulation (the v1 API additionally bounds rounds × scale).
const (
	// MaxPhases bounds the phase list of one spec.
	MaxPhases = 16
	// MaxRounds bounds the total scheduling rounds across all phases.
	MaxRounds = 4096
	// MaxUserRefs bounds the per-CPU user burst of one round.
	MaxUserRefs = 1 << 20
	// MaxRegionKB bounds the private and shared region sizes.
	MaxRegionKB = 1024
	// MaxSharers bounds the sharing degree (the trace CPU field is a
	// uint8, so 256 is the machine ceiling too).
	MaxSharers = 256
	// MaxFSOps bounds false-sharing operations per CPU per round.
	MaxFSOps = 1 << 17
	// MaxFSVars bounds the distinct false-sharing counters.
	MaxFSVars = 64
	// MaxChunkOps bounds the chunked-mode combine interval.
	MaxChunkOps = 8192
	// MaxBlockOps bounds block operations per CPU per round.
	MaxBlockOps = 1024
	// MaxBlockBytes bounds one block operation's size.
	MaxBlockBytes = 1 << 20
	// maxNameLen bounds the spec and phase names.
	maxNameLen = 64
)

// FieldError reports one invalid scenario field: which field, the
// offending value, and why it was rejected — the same shape as
// sim.FieldError, so API decoders and CLIs can point at the exact
// knob.
type FieldError struct {
	// Field is the dotted/indexed field path, e.g. "phases[0].rounds".
	Field string
	// Value is the rejected value, rendered.
	Value string
	// Reason explains the constraint that failed.
	Reason string
}

// Error formats the violation.
func (e *FieldError) Error() string {
	return fmt.Sprintf("scenario: %s = %s: %s", e.Field, e.Value, e.Reason)
}

func fieldErr(field string, value any, reason string) error {
	return &FieldError{Field: field, Value: fmt.Sprint(value), Reason: reason}
}

// FalseSharingMode selects one member of the false-sharing
// microbenchmark trio.
type FalseSharingMode string

const (
	// FSNone disables the false-sharing emitter.
	FSNone FalseSharingMode = ""
	// FSNaive packs every CPU's counter next to its neighbours', so
	// several CPUs' counters share one cache line and every increment
	// ping-pongs the line (the naive shared-counter microbenchmark).
	FSNaive FalseSharingMode = "naive"
	// FSPadded gives each CPU's counter its own cache line (the
	// padded / block-race-optimized variant): same work, no
	// false sharing.
	FSPadded FalseSharingMode = "padded"
	// FSChunked accumulates into a CPU-private accumulator and folds
	// into the shared packed counter only once per chunk (the chunking
	// variant): the sharing survives but its frequency collapses.
	FSChunked FalseSharingMode = "chunked"
)

// FalseSharing configures the synthetic false-sharing emitter of one
// phase. The zero value disables it.
type FalseSharing struct {
	// Mode selects the microbenchmark variant.
	Mode FalseSharingMode `json:"mode,omitempty"`
	// OpsPerRound is the number of read-modify-write increments each
	// CPU performs per round.
	OpsPerRound int `json:"ops_per_round,omitempty"`
	// Vars is the number of distinct counters cycled through
	// (0 = 8). Under FSNaive, counters of all CPUs for one variable
	// are packed contiguously.
	Vars int `json:"vars,omitempty"`
	// ChunkOps is the FSChunked combine interval: one shared update
	// per this many private accumulations (0 = 64). Ignored by the
	// other modes.
	ChunkOps int `json:"chunk_ops,omitempty"`
}

// Enabled reports whether the emitter has work to do.
func (f FalseSharing) Enabled() bool { return f.Mode != FSNone && f.OpsPerRound > 0 }

// SizeClass is one entry of a block-operation size mixture.
type SizeClass struct {
	Bytes  uint64  `json:"bytes"`
	Weight float64 `json:"weight"`
}

// Phase is one stage of a scenario: a fixed number of scheduling
// rounds during which every CPU runs the same mixture of user
// computation, sharing traffic, false-sharing operations, block
// operations and (when the spec names a base profile) kernel
// services.
type Phase struct {
	// Name labels the phase (optional, for reports).
	Name string `json:"name,omitempty"`
	// Rounds is the number of scheduling rounds (required, >= 1).
	// RunConfig.Scale multiplies it.
	Rounds int `json:"rounds"`
	// UserRefs is the per-CPU user-mode reference burst per round
	// (0 = 4000).
	UserRefs int `json:"user_refs,omitempty"`
	// WorkingSetKB is each CPU's private working-set size (0 = 8).
	WorkingSetKB int `json:"working_set_kb,omitempty"`
	// SharedKB is the size of each sharing group's shared region
	// (0 = 8).
	SharedKB int `json:"shared_kb,omitempty"`
	// SharingDegree is how many CPUs share one region: the machine's
	// CPUs are partitioned into groups of this many neighbours, each
	// group sharing one region. 0 or 1 means private data only
	// (SharedFrac is then ignored). Clamped to the machine's CPU
	// count at generation time.
	SharingDegree int `json:"sharing_degree,omitempty"`
	// SharedFrac is the fraction of user data references that target
	// the group's shared region instead of the private working set.
	SharedFrac float64 `json:"shared_frac,omitempty"`
	// SharedWriteFrac is the fraction of shared-region references
	// that are writes (private references keep the generator's 1/4
	// write ratio).
	SharedWriteFrac float64 `json:"shared_write_frac,omitempty"`
	// FalseSharing configures the false-sharing emitter.
	FalseSharing FalseSharing `json:"false_sharing,omitempty"`
	// BlockOpsPerRound is the expected number of block operations
	// (OS-mediated copies into a fresh page) per CPU per round;
	// fractional rates are Bernoulli-rounded per round.
	BlockOpsPerRound float64 `json:"block_ops_per_round,omitempty"`
	// BlockSizes is the block-operation size mixture (empty = one
	// page, 4096 bytes).
	BlockSizes []SizeClass `json:"block_sizes,omitempty"`
	// BlockReadOnlyProb is the probability a copied block is never
	// written afterwards.
	BlockReadOnlyProb float64 `json:"block_read_only_prob,omitempty"`
	// OSIntensity scales the base profile's kernel service rates for
	// this phase (0 = 1.0). Meaningless without Spec.Base.
	OSIntensity float64 `json:"os_intensity,omitempty"`
	// BarrierEvery emits a gang barrier across all CPUs every this
	// many rounds (0 = none). Barriers keep the CPUs' phase
	// transitions aligned in simulated time.
	BarrierEvery int `json:"barrier_every,omitempty"`
}

// Spec is a declarative user-defined workload. Decode one with Parse
// or Load, or start from a built-in Preset.
type Spec struct {
	// Name identifies the scenario; it appears in reports and in the
	// canonical run key as "scenario:<name>".
	Name string `json:"name"`
	// Base optionally names one of the four calibrated workload
	// profiles (TRFD_4, TRFD+Make, ARC2D+Fsck, Shell) whose kernel
	// service mix runs underneath the synthetic phases. Empty means
	// pure user-level synthetic traffic (plus the barriers and block
	// operations the phases request).
	Base string `json:"base,omitempty"`
	// Phases run in order; at least one is required.
	Phases []Phase `json:"phases"`
}

// defaults for unset phase knobs.
const (
	defaultUserRefs  = 4000
	defaultRegionKB  = 8
	defaultFSVars    = 8
	defaultChunkOps  = 64
	defaultBlockSize = 4096
)

// Parse strictly decodes one JSON document into a validated Spec:
// unknown fields, trailing garbage and out-of-range values are all
// errors (field violations as *FieldError).
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: bad spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: bad spec: trailing data after JSON document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Validate checks every field against its bounds. Violations are
// returned as *FieldError values naming the offending field.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fieldErr("name", s.Name, "scenario name is required")
	}
	if len(s.Name) > maxNameLen {
		return fieldErr("name", s.Name, fmt.Sprintf("name exceeds %d characters", maxNameLen))
	}
	if strings.ContainsAny(s.Name, " \t\n|") {
		return fieldErr("name", s.Name, "name must not contain whitespace or '|'")
	}
	if s.Base != "" && !validBase(s.Base) {
		return fieldErr("base", s.Base,
			fmt.Sprintf("unknown base profile (want one of %v, or omit for pure synthetic)", baseNames))
	}
	if len(s.Phases) == 0 {
		return fieldErr("phases", len(s.Phases), "at least one phase is required")
	}
	if len(s.Phases) > MaxPhases {
		return fieldErr("phases", len(s.Phases), fmt.Sprintf("at most %d phases", MaxPhases))
	}
	total := 0
	for i := range s.Phases {
		if err := s.Phases[i].validate(fmt.Sprintf("phases[%d]", i)); err != nil {
			return err
		}
		total += s.Phases[i].Rounds
	}
	if total > MaxRounds {
		return fieldErr("phases", total, fmt.Sprintf("total rounds exceed %d", MaxRounds))
	}
	return nil
}

// baseNames are the profile names a Spec may compose kernel services
// from. The list mirrors workload.Names(); it is duplicated here
// (and cross-checked by a workload test) because workload imports
// this package.
var baseNames = []string{"TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"}

func validBase(name string) bool {
	for _, n := range baseNames {
		if n == name {
			return true
		}
	}
	return false
}

func (p *Phase) validate(path string) error {
	if len(p.Name) > maxNameLen {
		return fieldErr(path+".name", p.Name, fmt.Sprintf("name exceeds %d characters", maxNameLen))
	}
	if p.Rounds < 1 {
		return fieldErr(path+".rounds", p.Rounds, "rounds must be at least 1")
	}
	if p.UserRefs < 0 || p.UserRefs > MaxUserRefs {
		return fieldErr(path+".user_refs", p.UserRefs, fmt.Sprintf("must be in [0, %d]", MaxUserRefs))
	}
	if p.WorkingSetKB < 0 || p.WorkingSetKB > MaxRegionKB {
		return fieldErr(path+".working_set_kb", p.WorkingSetKB, fmt.Sprintf("must be in [0, %d]", MaxRegionKB))
	}
	if p.SharedKB < 0 || p.SharedKB > MaxRegionKB {
		return fieldErr(path+".shared_kb", p.SharedKB, fmt.Sprintf("must be in [0, %d]", MaxRegionKB))
	}
	if p.SharingDegree < 0 || p.SharingDegree > MaxSharers {
		return fieldErr(path+".sharing_degree", p.SharingDegree, fmt.Sprintf("must be in [0, %d]", MaxSharers))
	}
	if bad(p.SharedFrac) {
		return fieldErr(path+".shared_frac", p.SharedFrac, "must be in [0, 1]")
	}
	if bad(p.SharedWriteFrac) {
		return fieldErr(path+".shared_write_frac", p.SharedWriteFrac, "must be in [0, 1]")
	}
	switch p.FalseSharing.Mode {
	case FSNone, FSNaive, FSPadded, FSChunked:
	default:
		return fieldErr(path+".false_sharing.mode", string(p.FalseSharing.Mode),
			`must be one of "naive", "padded", "chunked" (or empty)`)
	}
	if p.FalseSharing.OpsPerRound < 0 || p.FalseSharing.OpsPerRound > MaxFSOps {
		return fieldErr(path+".false_sharing.ops_per_round", p.FalseSharing.OpsPerRound,
			fmt.Sprintf("must be in [0, %d]", MaxFSOps))
	}
	if p.FalseSharing.Vars < 0 || p.FalseSharing.Vars > MaxFSVars {
		return fieldErr(path+".false_sharing.vars", p.FalseSharing.Vars,
			fmt.Sprintf("must be in [0, %d]", MaxFSVars))
	}
	if p.FalseSharing.ChunkOps < 0 || p.FalseSharing.ChunkOps > MaxChunkOps {
		return fieldErr(path+".false_sharing.chunk_ops", p.FalseSharing.ChunkOps,
			fmt.Sprintf("must be in [0, %d]", MaxChunkOps))
	}
	if p.BlockOpsPerRound < 0 || p.BlockOpsPerRound > MaxBlockOps {
		return fieldErr(path+".block_ops_per_round", p.BlockOpsPerRound,
			fmt.Sprintf("must be in [0, %d]", MaxBlockOps))
	}
	for j, sc := range p.BlockSizes {
		if sc.Bytes == 0 || sc.Bytes > MaxBlockBytes {
			return fieldErr(fmt.Sprintf("%s.block_sizes[%d].bytes", path, j), sc.Bytes,
				fmt.Sprintf("must be in [1, %d]", MaxBlockBytes))
		}
		if sc.Weight <= 0 || bad(sc.Weight/(sc.Weight+1)) {
			return fieldErr(fmt.Sprintf("%s.block_sizes[%d].weight", path, j), sc.Weight,
				"weight must be positive and finite")
		}
	}
	if bad(p.BlockReadOnlyProb) {
		return fieldErr(path+".block_read_only_prob", p.BlockReadOnlyProb, "must be in [0, 1]")
	}
	if p.OSIntensity < 0 || p.OSIntensity > 64 || bad(p.OSIntensity/64) {
		return fieldErr(path+".os_intensity", p.OSIntensity, "must be in [0, 64]")
	}
	if p.BarrierEvery < 0 || p.BarrierEvery > MaxRounds {
		return fieldErr(path+".barrier_every", p.BarrierEvery, fmt.Sprintf("must be in [0, %d]", MaxRounds))
	}
	return nil
}

// bad reports a fraction outside [0, 1] (NaN included: NaN fails both
// comparisons' complements).
func bad(f float64) bool { return !(f >= 0 && f <= 1) }

// TotalRounds is the scheduling rounds one pass over the spec
// generates (before any Scale multiplier).
func (s *Spec) TotalRounds() int {
	total := 0
	for i := range s.Phases {
		total += s.Phases[i].Rounds
	}
	return total
}

// EffectiveUserRefs upper-bounds the per-CPU references one pass over
// the spec generates (user bursts plus false-sharing operations, with
// unset knobs resolved to their defaults) — the quantity the v1 API
// bounds so one request cannot describe an absurdly long simulation.
func (s *Spec) EffectiveUserRefs() int {
	total := 0
	for i := range s.Phases {
		p := &s.Phases[i]
		per := p.UserRefs
		if per == 0 {
			per = defaultUserRefs
		}
		if p.FalseSharing.Enabled() {
			// Each false-sharing op is ~3 references (instr + RMW pair).
			per += 3 * p.FalseSharing.OpsPerRound
		}
		total += p.Rounds * per
	}
	return total
}

// Hash returns a stable content address of the spec: equal hashes
// mean equal generated traces (for a given machine, optimization
// config, scale and seed), so the hash is safe to deduplicate and
// cache on. It covers every generation-affecting field via the
// canonical rendering below — not the JSON encoding, which tolerates
// field order and whitespace differences.
func (s *Spec) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "scenario/v1|n=%s|b=%s|p=%d", s.Name, s.Base, len(s.Phases))
	for i := range s.Phases {
		p := &s.Phases[i]
		fmt.Fprintf(h, "|[r=%d;u=%d;ws=%d;sh=%d;d=%d;sf=%g;swf=%g",
			p.Rounds, p.UserRefs, p.WorkingSetKB, p.SharedKB,
			p.SharingDegree, p.SharedFrac, p.SharedWriteFrac)
		fmt.Fprintf(h, ";fs=%s/%d/%d/%d",
			p.FalseSharing.Mode, p.FalseSharing.OpsPerRound,
			p.FalseSharing.Vars, p.FalseSharing.ChunkOps)
		fmt.Fprintf(h, ";bo=%g;bro=%g;os=%g;be=%d;bs=%d",
			p.BlockOpsPerRound, p.BlockReadOnlyProb, p.OSIntensity,
			p.BarrierEvery, len(p.BlockSizes))
		for _, sc := range p.BlockSizes {
			fmt.Fprintf(h, ",%d:%g", sc.Bytes, sc.Weight)
		}
		io.WriteString(h, "]")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WithSharingDegree returns a deep copy of the spec with every
// phase's sharing degree replaced — the one-knob derivation a
// sharing-degree sweep is made of. The copy is renamed
// "<name>@s<degree>" so the two specs hash (and cache) distinctly.
func (s *Spec) WithSharingDegree(d int) *Spec {
	out := s.clone()
	out.Name = fmt.Sprintf("%s@s%d", s.Name, d)
	for i := range out.Phases {
		out.Phases[i].SharingDegree = d
	}
	return out
}

// clone deep-copies the spec.
func (s *Spec) clone() *Spec {
	out := *s
	out.Phases = make([]Phase, len(s.Phases))
	copy(out.Phases, s.Phases)
	for i := range out.Phases {
		if len(s.Phases[i].BlockSizes) > 0 {
			out.Phases[i].BlockSizes = append([]SizeClass(nil), s.Phases[i].BlockSizes...)
		}
	}
	return &out
}
