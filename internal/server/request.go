package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
)

// This file is the daemon's external input surface: the JSON request
// body of POST /v1/runs, its decoding, and the validation that turns it
// into a core.RunConfig value. The fragments every request shares —
// machine geometry, workload selection, job options, the FieldError
// shape — live in spec.go; this file and campaign.go compose them.
// Everything here must hold up under arbitrary bytes — the fuzz
// targets FuzzDecodeRunRequest and FuzzDecodeCampaignRequest drive the
// decoders with adversarial input and require a clean client error
// (never a panic, never an unvalidated configuration).

// Request size and parameter bounds. They exist to keep one request
// from monopolizing the daemon: a simulated cache's line array and
// every per-CPU buffer are allocated eagerly, and scale multiplies
// trace length. The public decoders check them field by field;
// checkBounds applies them to a configuration that arrives whole.
const (
	// maxBodyBytes bounds a request body.
	maxBodyBytes = 1 << 20
	// maxCacheKB bounds any requested cache size (16 MB).
	maxCacheKB = 16 * 1024
	// maxLineBytes bounds a requested line size.
	maxLineBytes = 1024
	// maxAssoc bounds requested associativity.
	maxAssoc = 64
	// maxBufDepth bounds every per-CPU buffer capacity: MSHR entries,
	// both write-buffer depths and prefetch-buffer lines.
	maxBufDepth = 256
	// maxCycles bounds a requested memory or DMA latency.
	maxCycles = 1 << 20
	// maxScale bounds requested scheduling rounds per workload.
	maxScale = 1000
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

// checkBounds applies the request bounds to a configuration that did
// not come through the public decoders (a forwarded compute), so no
// route admits a run the public API would refuse. Machine violations
// are *FieldError values named by their sim.Params path.
func checkBounds(cfg core.RunConfig) error {
	if err := (&JobOptions{Scale: cfg.Scale, Seed: cfg.Seed}).validate(); err != nil {
		return err
	}
	if cfg.Scenario != nil {
		// The public resolver validates and bounds an inline spec.
		raw, _ := json.Marshal(cfg.Scenario)
		if _, err := (&ScenarioRequest{Spec: raw}).resolve(cfg.Scale); err != nil {
			return err
		}
	}
	p := cfg.Machine
	if p == nil {
		return nil
	}
	if err := machineError(p.Validate()); err != nil {
		return err
	}
	// Validate leaves only an unused PrefBufLines non-positive; as an
	// unsigned value a negative one fails its bound too.
	for _, b := range []struct {
		name     string
		v, bound uint64
	}{
		{"L1I.Size", p.L1I.Size, maxCacheKB * 1024},
		{"L1D.Size", p.L1D.Size, maxCacheKB * 1024},
		{"L2.Size", p.L2.Size, maxCacheKB * 1024},
		{"L1I.LineSize", p.L1I.LineSize, maxLineBytes},
		{"L1D.LineSize", p.L1D.LineSize, maxLineBytes},
		{"L2.LineSize", p.L2.LineSize, maxLineBytes},
		{"L1I.Assoc", uint64(p.L1I.Assoc), maxAssoc},
		{"L1D.Assoc", uint64(p.L1D.Assoc), maxAssoc},
		{"L2.Assoc", uint64(p.L2.Assoc), maxAssoc},
		{"MSHREntries", uint64(p.MSHREntries), maxBufDepth},
		{"L1WriteBufDepth", uint64(p.L1WriteBufDepth), maxBufDepth},
		{"L2WriteBufDepth", uint64(p.L2WriteBufDepth), maxBufDepth},
		{"PrefBufLines", uint64(p.PrefBufLines), maxBufDepth},
		{"MemCycles", p.MemCycles, maxCycles},
		{"DMACyclesPer8B", p.DMACyclesPer8B, maxCycles},
	} {
		if b.v > b.bound {
			return fieldErrf("machine."+b.name, b.v, "out of range [1, %d]", b.bound)
		}
	}
	return nil
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
