package core

import (
	"fmt"
	"math"

	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/trace"
)

// RefError reports one reference Replay refuses: the processor whose
// stream holds it, its index in that stream, the offending field and
// why. Generated workloads never produce one; a captured or
// hand-written trace can.
type RefError struct {
	// CPU is the stream (processor) the reference belongs to.
	CPU int
	// Index is the reference's position in its stream.
	Index int
	// Field names the rejected trace.Ref field, e.g. "Len".
	Field string
	// Value is the rejected value.
	Value uint64
	// Reason explains the constraint that failed.
	Reason string
}

// Error formats the rejection.
func (e *RefError) Error() string {
	return fmt.Sprintf("core: cpu%d ref %d: %s = %d: %s", e.CPU, e.Index, e.Field, e.Value, e.Reason)
}

// validateRefs refuses the references machine p cannot simulate in
// bounded time or at all:
//
//   - a block DMA longer than the largest block any generator emits
//     (scenario.MaxBlockBytes; the classic kernel's are at most a
//     page), whose cost is linear in its length;
//   - a block DMA operand that runs past the end of the address space,
//     whose line walk would wrap around it;
//   - a barrier expecting more participants than the machine has
//     processors, which could only end in a deadlock.
//
// A lock release by a processor that does not hold the lock is left
// alone: the simulator tolerates it, since a trace may start in the
// middle of a critical section.
func validateRefs(p sim.Params, perCPU [][]trace.Ref) error {
	for cpu, refs := range perCPU {
		for i := range refs {
			if field, value, reason := refFault(p, &refs[i]); field != "" {
				return &RefError{CPU: cpu, Index: i, Field: field, Value: value, Reason: reason}
			}
		}
	}
	return nil
}

// refFault returns the field of r that validateRefs refuses, its value
// and why, or an empty field when r is fine.
func refFault(p sim.Params, r *trace.Ref) (field string, value uint64, reason string) {
	switch {
	case r.Op == trace.OpBlockDMA:
		if r.Len > scenario.MaxBlockBytes {
			return "Len", uint64(r.Len),
				fmt.Sprintf("block operation longer than the largest any generator emits (%d bytes)", scenario.MaxBlockBytes)
		}
		const wraps = "block operation runs past the end of the address space"
		if end := r.Addr + uint64(r.Len); end < r.Addr || end > math.MaxUint64-p.L2.LineSize {
			return "Addr", r.Addr, wraps
		}
		if end := r.Aux + uint64(r.Len); end < r.Aux || end > math.MaxUint64-p.L2.LineSize {
			return "Aux", r.Aux, wraps
		}
	case r.Op == trace.OpWrite && r.Sync == trace.SyncBarrier:
		if int(r.Len) > p.NumCPUs {
			return "Len", uint64(r.Len),
				fmt.Sprintf("barrier expects more participants than the machine's %d processors", p.NumCPUs)
		}
	}
	return "", 0, ""
}
