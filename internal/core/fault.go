package core

import "fmt"

// Fault selects a deliberate defect the algorithm injects into its own
// round pipeline. Faults exist for the conformance layer's self-tests
// (internal/oracle): a checking apparatus is only trustworthy if it
// demonstrably catches broken engines, so the fuzz targets re-run with an
// injected fault and assert the oracle reports a divergence — and that the
// shrinker reduces the witness to a handful of robots. Production code
// paths never set a fault; the zero value is fault-free.
type Fault int

const (
	// FaultNone runs the pipeline unmodified.
	FaultNone Fault = iota
	// FaultSkipMergeResolution skips the post-move merge resolution pass:
	// robots hop into co-location but are never spliced out of the ring,
	// the paper's progress operation silently stops shortening the chain.
	FaultSkipMergeResolution
	// FaultSkipSpikePriority disables the spike-priority suppression rule
	// (DESIGN.md §3.1): straight merge patterns whose blacks are the
	// whites of an executing spike hop anyway, re-introducing the
	// oscillation the rule exists to prevent.
	FaultSkipSpikePriority
	// FaultPanic panics inside the merge-scan kernel — on a pool worker
	// goroutine when Config.Workers >= 2 — exercising the panic-isolation
	// path: parallel.Pool must surface the panic on the dispatching
	// goroutine and sim.Engine must convert it into a per-run error
	// (internal/chaos).
	FaultPanic
	// FaultWorkerStall delays odd-numbered merge-scan workers, skewing the
	// fan-out's completion order. Results must remain byte-identical: the
	// chunk-order combine, not scheduling luck, defines the round
	// (internal/chaos).
	FaultWorkerStall
)

// valid reports whether f is a known fault value; restores reject snapshots
// carrying faults this build does not know.
func (f Fault) valid() bool { return f >= FaultNone && f <= FaultWorkerStall }

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSkipMergeResolution:
		return "skip-merge-resolution"
	case FaultSkipSpikePriority:
		return "skip-spike-priority"
	case FaultPanic:
		return "panic"
	case FaultWorkerStall:
		return "worker-stall"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// InjectFaultAt arms a deliberate defect starting from the given round
// (inclusive); earlier rounds run clean. The chaos harness (internal/chaos)
// uses it to corrupt a run mid-flight and assert the conformance layer
// still catches the divergence at exactly that point.
func (a *Algorithm) InjectFaultAt(f Fault, fromRound int) {
	a.fault = f
	a.faultFrom = fromRound
}

// activeFault returns the defect in effect for the current round: the armed
// fault once the arming round is reached, FaultNone before.
func (a *Algorithm) activeFault() Fault {
	if a.round < a.faultFrom {
		return FaultNone
	}
	return a.fault
}
