package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// This file is the daemon's external input surface: the JSON request
// bodies of POST /v1/runs and POST /v1/sweeps, their decoding, and the
// validation that turns them into core.RunConfig values. The fragments
// every request shares — machine geometry, workload selection, job
// options, the FieldError shape — live in spec.go; this file composes
// them. Everything here must hold up under arbitrary bytes — the fuzz
// target FuzzDecodeRunRequest drives decodeRunRequest with adversarial
// input and requires a clean client error (never a panic, never an
// unvalidated configuration).

// Request size and parameter bounds. They exist to keep one request
// from monopolizing the daemon: a simulated cache's line array is
// allocated eagerly, and scale multiplies trace length.
const (
	// maxBodyBytes bounds a request body.
	maxBodyBytes = 1 << 20
	// maxCacheKB bounds any requested cache size (16 MB).
	maxCacheKB = 16 * 1024
	// maxLineBytes bounds a requested line size.
	maxLineBytes = 1024
	// maxAssoc bounds requested associativity.
	maxAssoc = 64
	// maxScale bounds requested scheduling rounds per workload.
	maxScale = 1000
	// maxSweepPoints bounds the grid of one sweep job.
	maxSweepPoints = 64
	// maxSweepSystems bounds the systems compared per sweep point.
	maxSweepSystems = 8
	// maxScenarioRounds bounds a scenario request's effective rounds
	// (spec rounds x scale).
	maxScenarioRounds = 8192
	// maxScenarioRefs bounds a scenario request's effective per-CPU
	// references (spec references x scale) — comparable to the largest
	// classic run maxScale admits.
	maxScenarioRefs = 1 << 24
)

// RequestError is a client error: the request could not be decoded or
// describes an invalid simulation. Handlers map it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func reqErrf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// ScenarioRequest selects a declarative scenario workload in place of
// a named one: a built-in preset by name, or a full inline spec
// document (the scenario JSON schema, strictly decoded). Exactly one
// of the two must be set.
type ScenarioRequest struct {
	// Preset names a built-in scenario (GET /v1/workloads lists them).
	Preset string `json:"preset,omitempty"`
	// Spec is an inline scenario spec document.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// resolve validates the selection and bounds the effective simulation
// length under the request's scale. Spec field violations become
// *FieldError values under the "scenario.spec." path, keeping the
// offending field path in the message; everything else is a
// *RequestError.
func (s *ScenarioRequest) resolve(scale int) (*scenario.Spec, error) {
	var spec *scenario.Spec
	switch {
	case s.Preset != "" && len(s.Spec) > 0:
		return nil, reqErrf("scenario: pass exactly one of preset or spec")
	case s.Preset != "":
		sp, err := scenario.Preset(s.Preset)
		if err != nil {
			return nil, reqErrf("%v", err)
		}
		spec = sp
	case len(s.Spec) > 0:
		sp, err := scenario.Parse(s.Spec)
		if err != nil {
			var fe *scenario.FieldError
			if errors.As(err, &fe) {
				return nil, &FieldError{Field: "scenario.spec." + fe.Field, Value: fe.Value, Reason: fe.Reason}
			}
			return nil, reqErrf("%v", err)
		}
		spec = sp
	default:
		return nil, reqErrf("scenario: pass one of preset or spec (presets: %v)", scenario.PresetNames())
	}
	eff := scale
	if eff <= 0 {
		eff = 1
	}
	if r := spec.TotalRounds() * eff; r > maxScenarioRounds {
		return nil, reqErrf("scenario %q at scale %d runs %d rounds, exceeding the maximum %d",
			spec.Name, eff, r, maxScenarioRounds)
	}
	if r := spec.EffectiveUserRefs() * eff; r > maxScenarioRefs {
		return nil, reqErrf("scenario %q at scale %d generates ~%d references per CPU, exceeding the maximum %d",
			spec.Name, eff, r, maxScenarioRefs)
	}
	return spec, nil
}

// RunRequest is the body of POST /v1/runs: the shared workload
// selection and job options plus one system and its run attributes.
type RunRequest struct {
	WorkloadSpec
	JobOptions
	System       string       `json:"system"`
	DeferredCopy bool         `json:"deferred_copy,omitempty"`
	PureUpdate   bool         `json:"pure_update,omitempty"`
	Machine      *MachineSpec `json:"machine,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps: one workload (or
// scenario) simulated under each system at each grid point. Exactly
// one of SizesKB, LineSizes and Sharers must be set; Sharers sweeps a
// scenario's sharing degree and therefore requires Scenario.
type SweepRequest struct {
	WorkloadSpec
	JobOptions
	Systems   []string `json:"systems"`
	SizesKB   []uint64 `json:"sizes_kb,omitempty"`
	LineSizes []uint64 `json:"line_sizes,omitempty"`
	// Sharers sweeps the scenario's sharing degree: one grid point per
	// degree, each within [1, the machine's CPU count].
	Sharers []int `json:"sharers,omitempty"`
	// L2Line is the L2 line size during a line-size sweep (default 32,
	// raised to the swept L1 line when smaller).
	L2Line uint64 `json:"l2_line,omitempty"`
	// Machine optionally overrides the base machine at every grid
	// point (a sharing-degree sweep past 4 CPUs needs a wider machine).
	Machine *MachineSpec `json:"machine,omitempty"`
}

// decodeJSON strictly decodes one JSON document from r into v:
// unknown fields and trailing garbage are errors.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return reqErrf("bad request body: %v", err)
	}
	if dec.More() {
		return reqErrf("bad request body: trailing data after JSON document")
	}
	return nil
}

// decodeRunRequest decodes and fully validates a /v1/runs body,
// returning the simulation configuration it describes. The returned
// config always passes sim.Params.Validate. All failures satisfy
// isRequestError.
func decodeRunRequest(r io.Reader) (core.RunConfig, *RunRequest, error) {
	var rr RunRequest
	if err := decodeJSON(r, &rr); err != nil {
		return core.RunConfig{}, nil, err
	}
	cfg, err := rr.toConfig()
	if err != nil {
		return core.RunConfig{}, nil, err
	}
	return cfg, &rr, nil
}

// toConfig validates the request and builds the run configuration.
func (rr *RunRequest) toConfig() (core.RunConfig, error) {
	var cfg core.RunConfig
	if err := rr.JobOptions.validate(); err != nil {
		return cfg, err
	}
	w, spec, err := rr.WorkloadSpec.resolve(rr.Scale)
	if err != nil {
		return cfg, err
	}
	sys, err := core.ParseSystem(rr.System)
	if err != nil {
		return cfg, reqErrf("%v", err)
	}
	cfg = core.RunConfig{
		Workload:     w,
		Scenario:     spec,
		System:       sys,
		Scale:        rr.Scale,
		Seed:         rr.Seed,
		DeferredCopy: rr.DeferredCopy,
		PureUpdate:   rr.PureUpdate,
		Stream:       rr.Stream,
	}
	if rr.Machine != nil {
		p, err := rr.Machine.toParams()
		if err != nil {
			return cfg, err
		}
		cfg.Machine = p
	}
	return cfg, nil
}

func clampTimeout(ms int64, serverMax time.Duration) time.Duration {
	if ms <= 0 {
		return serverMax
	}
	d := time.Duration(ms) * time.Millisecond
	if d > serverMax {
		return serverMax
	}
	return d
}

// sweepPoint is one (geometry, system) cell of a sweep grid.
type sweepPoint struct {
	Label  string
	System core.System
	Cfg    core.RunConfig
}

// decodeSweepRequest decodes and validates a /v1/sweeps body and
// expands it into the grid of runs it describes.
func decodeSweepRequest(r io.Reader) ([]sweepPoint, *SweepRequest, error) {
	var sr SweepRequest
	if err := decodeJSON(r, &sr); err != nil {
		return nil, nil, err
	}
	points, err := sr.expand()
	if err != nil {
		return nil, nil, err
	}
	return points, &sr, nil
}

// expand validates the sweep and produces its grid.
func (sr *SweepRequest) expand() ([]sweepPoint, error) {
	if err := sr.JobOptions.validate(); err != nil {
		return nil, err
	}
	w, spec, err := sr.WorkloadSpec.resolve(sr.Scale)
	if err != nil {
		return nil, err
	}
	if len(sr.Systems) == 0 {
		return nil, reqErrf("sweep needs at least one system")
	}
	if len(sr.Systems) > maxSweepSystems {
		return nil, reqErrf("sweep of %d systems exceeds the maximum %d", len(sr.Systems), maxSweepSystems)
	}
	axes := 0
	for _, n := range []int{len(sr.SizesKB), len(sr.LineSizes), len(sr.Sharers)} {
		if n > 0 {
			axes++
		}
	}
	if axes != 1 {
		return nil, reqErrf("pass exactly one of sizes_kb, line_sizes or sharers")
	}
	if len(sr.Sharers) > 0 && spec == nil {
		return nil, reqErrf("sharers sweeps a scenario's sharing degree; pass scenario too")
	}
	var systems []core.System
	for _, name := range sr.Systems {
		sys, err := core.ParseSystem(name)
		if err != nil {
			return nil, reqErrf("%v", err)
		}
		systems = append(systems, sys)
	}

	base := sim.DefaultParams()
	if sr.Machine != nil {
		p, err := sr.Machine.toParams()
		if err != nil {
			return nil, err
		}
		base = *p
	}
	type geo struct {
		label string
		p     *sim.Params
		spec  *scenario.Spec
	}
	var grid []geo
	for _, kb := range sr.SizesKB {
		if kb == 0 || kb > maxCacheKB {
			return nil, reqErrf("sizes_kb value %d out of range [1, %d]", kb, maxCacheKB)
		}
		p := base
		p.L1D.Size = kb * 1024
		if err := p.Validate(); err != nil {
			return nil, reqErrf("invalid geometry %dKB: %v", kb, err)
		}
		grid = append(grid, geo{fmt.Sprintf("%dKB", kb), &p, spec})
	}
	for _, line := range sr.LineSizes {
		if line == 0 || line > maxLineBytes {
			return nil, reqErrf("line_sizes value %d out of range [1, %d]", line, maxLineBytes)
		}
		p := base
		p.L1D.LineSize = line
		p.L1I.LineSize = line
		p.L2.LineSize = sr.L2Line
		if p.L2.LineSize == 0 {
			p.L2.LineSize = 32
		}
		if p.L2.LineSize < line {
			p.L2.LineSize = line
		}
		if err := p.Validate(); err != nil {
			return nil, reqErrf("invalid geometry %dB lines: %v", line, err)
		}
		grid = append(grid, geo{fmt.Sprintf("%dB", line), &p, spec})
	}
	for _, d := range sr.Sharers {
		if d < 1 || d > base.NumCPUs {
			return nil, reqErrf("sharers value %d outside [1, %d] (override machine.num_cpus to widen)",
				d, base.NumCPUs)
		}
		p := base
		grid = append(grid, geo{fmt.Sprintf("d=%d", d), &p, spec.WithSharingDegree(d)})
	}
	if len(grid)*len(systems) > maxSweepPoints {
		return nil, reqErrf("sweep of %d points exceeds the maximum %d", len(grid)*len(systems), maxSweepPoints)
	}

	var points []sweepPoint
	for _, g := range grid {
		for _, sys := range systems {
			machine := *g.p
			cfg := core.RunConfig{
				System: sys, Scale: sr.Scale, Seed: sr.Seed,
				Machine: &machine, Stream: sr.Stream,
			}
			if g.spec != nil {
				cfg.Scenario = g.spec
				cfg.Workload = workload.SpecWorkloadName(g.spec)
			} else {
				cfg.Workload = w
			}
			points = append(points, sweepPoint{Label: g.label, System: sys, Cfg: cfg})
		}
	}
	return points, nil
}
