package server

// This file is the shared request vocabulary of the v1 API: the
// machine-spec, workload-selection and job-option fragments that
// RunRequest and CampaignRequest embed verbatim, plus the dotted-path
// FieldError every validator speaks. One decoder (decodeJSON), one
// validator per fragment, one error shape across both resources.

import (
	"errors"
	"fmt"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// FieldError is a client error attributable to one request field,
// named by its dotted path ("machine.l1d_size_kb", "scale",
// "cpus[1]"). Handlers map it to 400 and echo the path in the error
// envelope's "field" member.
type FieldError struct {
	// Field is the dotted/indexed field path.
	Field string
	// Value is the rejected value, rendered.
	Value string
	// Reason explains the constraint that failed.
	Reason string
}

// Error formats the violation.
func (e *FieldError) Error() string {
	if e.Value == "" {
		return fmt.Sprintf("%s: %s", e.Field, e.Reason)
	}
	return fmt.Sprintf("%s = %s: %s", e.Field, e.Value, e.Reason)
}

// fieldErrf builds a FieldError; a nil value renders empty.
func fieldErrf(field string, value any, format string, args ...any) error {
	v := ""
	if value != nil {
		v = fmt.Sprintf("%v", value)
	}
	return &FieldError{Field: field, Value: v, Reason: fmt.Sprintf(format, args...)}
}

// errorField extracts the dotted field path of a client error, if it
// carries one, for the error envelope.
func errorField(err error) string {
	var fe *FieldError
	if errors.As(err, &fe) {
		return fe.Field
	}
	var ce *campaign.FieldError
	if errors.As(err, &ce) {
		return ce.Field
	}
	return ""
}

// isRequestError reports whether err is a client error (mapped to 400).
func isRequestError(err error) bool {
	var re *RequestError
	var fe *FieldError
	var ce *campaign.FieldError
	return errors.As(err, &re) || errors.As(err, &fe) || errors.As(err, &ce)
}

// JobOptions are the execution knobs every job-submitting request
// shares: simulation scale, the deterministic seed and the per-job
// deadline.
type JobOptions struct {
	// Scale is the scheduling-round multiplier (0 = workload default).
	Scale int `json:"scale,omitempty"`
	// Seed drives all generation deterministically.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS optionally tightens the server's per-job deadline; it
	// can never extend it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// validate bounds the shared knobs; failures are *FieldError values.
func (o *JobOptions) validate() error {
	if o.Scale < 0 || o.Scale > maxScale {
		return fieldErrf("scale", o.Scale, "out of range [0, %d]", maxScale)
	}
	if o.Seed < 0 {
		return fieldErrf("seed", o.Seed, "must be non-negative")
	}
	if o.TimeoutMS < 0 {
		return fieldErrf("timeout_ms", o.TimeoutMS, "must be non-negative")
	}
	return nil
}

// timeout returns the request's effective deadline under the server
// maximum.
func (o *JobOptions) timeout(serverMax time.Duration) time.Duration {
	if o.TimeoutMS <= 0 {
		return serverMax
	}
	return min(time.Duration(o.TimeoutMS)*time.Millisecond, serverMax)
}

// WorkloadSpec selects what to simulate: one built-in profile by name,
// or a declarative scenario. Exactly one must be set.
type WorkloadSpec struct {
	// Workload names one of the four built-in profiles. Leave it empty
	// when Scenario is set.
	Workload string `json:"workload,omitempty"`
	// Scenario replaces the named workload with a declarative one.
	Scenario *ScenarioRequest `json:"scenario,omitempty"`
}

// resolve validates the exactly-one-of selection. scale bounds a
// scenario's effective length. On success exactly one of the returned
// name and spec is meaningful: a non-nil spec carries its own
// "scenario:<name>" workload label.
func (ws *WorkloadSpec) resolve(scale int) (workload.Name, *scenario.Spec, error) {
	if ws.Scenario != nil && ws.Workload != "" {
		return "", nil, reqErrf("pass either workload or scenario, not both")
	}
	if ws.Scenario != nil {
		spec, err := ws.Scenario.resolve(scale)
		if err != nil {
			return "", nil, err
		}
		return workload.SpecWorkloadName(spec), spec, nil
	}
	w, err := workload.ParseName(ws.Workload)
	if err != nil {
		return "", nil, reqErrf("%v; or pass a scenario (presets: %v)", err, scenario.PresetNames())
	}
	return w, nil, nil
}

// MachineSpec optionally overrides the paper's machine geometry. All
// fields are pointers so "absent" and "zero" are distinguishable;
// absent fields keep the default machine's values. Violations are
// *FieldError values under the "machine." path.
type MachineSpec struct {
	NumCPUs   *int    `json:"num_cpus,omitempty"`
	L1DSizeKB *uint64 `json:"l1d_size_kb,omitempty"`
	L1DLine   *uint64 `json:"l1d_line,omitempty"`
	L1DAssoc  *int    `json:"l1d_assoc,omitempty"`
	L1ISizeKB *uint64 `json:"l1i_size_kb,omitempty"`
	L1ILine   *uint64 `json:"l1i_line,omitempty"`
	L2SizeKB  *uint64 `json:"l2_size_kb,omitempty"`
	L2Line    *uint64 `json:"l2_line,omitempty"`
	L2Assoc   *int    `json:"l2_assoc,omitempty"`
	MSHR      *int    `json:"mshr,omitempty"`
	L1WBDepth *int    `json:"l1_wb_depth,omitempty"`
	L2WBDepth *int    `json:"l2_wb_depth,omitempty"`
	MemCycles *uint64 `json:"mem_cycles,omitempty"`
	DMAPer8B  *uint64 `json:"dma_cycles_per_8b,omitempty"`
	// Coherence selects the protocol family: "snoop" (aliases "mesi",
	// "bus") or "directory" (alias "dir"). Directory machines scale
	// past the snooping bus's 64-CPU ceiling and ignore the Firefly
	// update attribute.
	Coherence *string `json:"coherence,omitempty"`
	// L1WriteBack makes the primary data cache write-back: stores to
	// lines the local L2 owns complete without entering the
	// write-through buffers.
	L1WriteBack *bool `json:"l1_writeback,omitempty"`
}

// toParams applies the overrides to the default machine and validates
// the result.
func (m *MachineSpec) toParams() (*sim.Params, error) {
	p := sim.DefaultParams()
	setSize := func(dst *uint64, kb *uint64, what string) error {
		if kb == nil {
			return nil
		}
		if *kb == 0 || *kb > maxCacheKB {
			return fieldErrf("machine."+what, *kb, "KB out of range [1, %d]", maxCacheKB)
		}
		*dst = *kb * 1024
		return nil
	}
	steps := []error{
		setSize(&p.L1D.Size, m.L1DSizeKB, "l1d_size_kb"),
		setBounded(&p.L1D.LineSize, m.L1DLine, "l1d_line", maxLineBytes),
		setBounded(&p.L1D.Assoc, m.L1DAssoc, "l1d_assoc", maxAssoc),
		setSize(&p.L1I.Size, m.L1ISizeKB, "l1i_size_kb"),
		setBounded(&p.L1I.LineSize, m.L1ILine, "l1i_line", maxLineBytes),
		setSize(&p.L2.Size, m.L2SizeKB, "l2_size_kb"),
		setBounded(&p.L2.LineSize, m.L2Line, "l2_line", maxLineBytes),
		setBounded(&p.L2.Assoc, m.L2Assoc, "l2_assoc", maxAssoc),
		setBounded(&p.MSHREntries, m.MSHR, "mshr", maxBufDepth),
		setBounded(&p.L1WriteBufDepth, m.L1WBDepth, "l1_wb_depth", maxBufDepth),
		setBounded(&p.L2WriteBufDepth, m.L2WBDepth, "l2_wb_depth", maxBufDepth),
		setBounded(&p.MemCycles, m.MemCycles, "mem_cycles", maxCycles),
		setBounded(&p.DMACyclesPer8B, m.DMAPer8B, "dma_cycles_per_8b", maxCycles),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	if m.NumCPUs != nil {
		p.NumCPUs = *m.NumCPUs
	}
	if m.Coherence != nil {
		kind, err := sim.ParseCoherence(*m.Coherence)
		if err != nil {
			return nil, fieldErrf("machine.coherence", *m.Coherence, "%v", err)
		}
		p.Coherence = kind
	}
	if m.L1WriteBack != nil {
		p.L1WriteBack = *m.L1WriteBack
	}
	if err := machineError(p.Validate()); err != nil {
		return nil, err
	}
	return &p, nil
}

// setBounded copies an optional machine override into dst after
// checking that it lies in [1, bound].
func setBounded[T int | uint64](dst, v *T, what string, bound T) error {
	if v == nil {
		return nil
	}
	if *v <= 0 || *v > bound {
		return fieldErrf("machine."+what, *v, "out of range [1, %d]", bound)
	}
	*dst = *v
	return nil
}

// machineError turns a sim.Params.Validate failure into a request
// error under the "machine." path; nil stays nil.
func machineError(err error) error {
	if err == nil {
		return nil
	}
	var fe *sim.FieldError
	if errors.As(err, &fe) {
		return &FieldError{Field: "machine." + fe.Field, Value: fe.Value, Reason: fe.Reason}
	}
	return reqErrf("invalid machine: %v", err)
}
