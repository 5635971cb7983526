package core

import (
	"fmt"

	"gridgather/internal/chain"
)

// RunMode is the operating mode of a run state.
type RunMode int

// Run modes. A run in ModeNormal executes the reshapement operations of
// Fig 11; ModeTraverse covers operations (b) and (c), which move the run
// without hops for a fixed number of rounds; ModePassing is the run passing
// operation of Fig 8/14.
const (
	ModeNormal RunMode = iota
	ModeTraverse
	ModePassing
)

// String names the mode.
func (m RunMode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeTraverse:
		return "traverse"
	case ModePassing:
		return "passing"
	default:
		return fmt.Sprintf("RunMode(%d)", int(m))
	}
}

// StartKind distinguishes the two run-start patterns of Fig 5.
type StartKind int

// Start kinds: a quasi line ending in a stairway starts one run (Fig 5.i);
// the shared endpoint of a horizontal and a vertical quasi line starts two
// runs, one per direction (Fig 5.ii).
const (
	StartStairway StartKind = iota // Fig 5.(i)
	StartCorner                    // Fig 5.(ii)
)

// String names the start kind.
func (k StartKind) String() string {
	if k == StartStairway {
		return "stairway"
	}
	return "corner"
}

// MarshalText encodes the kind as its name, so JSON maps keyed by
// StartKind (e.g. sim.Result.StartsByKind) serialise self-describingly
// and stay stable if the enum values are ever reordered. Unknown values
// are an error, not a silent "corner": a future kind added without
// updating this codec must fail loudly instead of merging JSON keys.
func (k StartKind) MarshalText() ([]byte, error) {
	switch k {
	case StartStairway, StartCorner:
		return []byte(k.String()), nil
	default:
		return nil, fmt.Errorf("core: cannot marshal unknown start kind %d", int(k))
	}
}

// UnmarshalText decodes a kind name written by MarshalText.
func (k *StartKind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "stairway":
		*k = StartStairway
	case "corner":
		*k = StartCorner
	default:
		return fmt.Errorf("core: unknown start kind %q", text)
	}
	return nil
}

// TerminateReason records which of the paper's Table 1 conditions (or which
// engine safeguard) ended a run.
type TerminateReason int

// Termination reasons, numbered to match Table 1.
const (
	// TermSequentRun — Table 1.1: the runner can see the next sequent
	// (same-direction) run in front of it.
	TermSequentRun TerminateReason = iota + 1
	// TermEndpoint — Table 1.2: the runner can see the endpoint of the
	// quasi line in front of it (with no approaching run before it; see
	// DESIGN.md §3.4).
	TermEndpoint
	// TermMerge — Table 1.3: the runner was part of a merge operation.
	TermMerge
	// TermPassTargetGone — Table 1.4: the target corner of a run passing
	// operation was removed by a merge.
	TermPassTargetGone
	// TermOpTargetGone — Table 1.5: the target corner of operation (b)/(c)
	// was removed by a merge.
	TermOpTargetGone
	// TermHostRemoved is an engine safeguard: the hosting robot left the
	// chain without the run having terminated through conditions 1–5.
	// It should never fire; the simulator counts it as an anomaly.
	TermHostRemoved
	// TermStuck is an engine safeguard for a run that can no longer act
	// coherently (e.g. its advance target vanished twice in one round).
	TermStuck
	// TermStalled is the whole-simulation no-progress verdict: the engine
	// observed a full activation window without a hop, a merge or a
	// bounding-box change and terminated the run as a clean DNF instead of
	// spinning to the watchdog limit (sim.ErrStalled). It never ends an
	// individual run; sim.Result.Termination carries it.
	TermStalled
)

// terminateReasonNames maps every named reason to its String form; shared
// by String and the text marshalling in both directions.
var terminateReasonNames = map[TerminateReason]string{
	TermSequentRun:     "sequent-run-ahead",
	TermEndpoint:       "quasi-line-endpoint",
	TermMerge:          "merge-participation",
	TermPassTargetGone: "passing-target-removed",
	TermOpTargetGone:   "operation-target-removed",
	TermHostRemoved:    "host-removed",
	TermStuck:          "stuck",
	TermStalled:        "stalled",
}

// String names the reason.
func (t TerminateReason) String() string {
	if name, ok := terminateReasonNames[t]; ok {
		return name
	}
	return fmt.Sprintf("TerminateReason(%d)", int(t))
}

// MarshalText encodes the reason as its name, so JSON maps keyed by
// TerminateReason (e.g. sim.Result.EndsByReason) serialise
// self-describingly and stay stable across enum reordering.
func (t TerminateReason) MarshalText() ([]byte, error) {
	if name, ok := terminateReasonNames[t]; ok {
		return []byte(name), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown terminate reason %d", int(t))
}

// UnmarshalText decodes a reason name written by MarshalText.
func (t *TerminateReason) UnmarshalText(text []byte) error {
	for reason, name := range terminateReasonNames {
		if name == string(text) {
			*t = reason
			return nil
		}
	}
	return fmt.Errorf("core: unknown terminate reason %q", text)
}

// Run is an active run state (paper §3.2): it lives on one robot, has a
// fixed moving direction along the chain and moves one robot per round
// until it terminates. The paper's robots store runs in their constant
// memory; the engine materialises them as objects whose every transition is
// decided from the owner's local view.
type Run struct {
	// ID is instrumentation-only (unique per simulation).
	ID int
	// Host is the handle of the robot currently carrying the run.
	Host chain.Handle
	// Dir is the fixed moving direction along the chain: +1 or -1.
	Dir int
	// Mode is the current operating mode.
	Mode RunMode
	// TraverseLeft counts the remaining hop-free moves of ModeTraverse.
	TraverseLeft int
	// OpOrigin is the corner robot where the current traverse operation
	// started (chain.None when unset); it becomes the passing target of an
	// approaching run that interrupts the operation (Fig 14).
	OpOrigin chain.Handle
	// OpTarget is the corner robot the current traverse operation moves
	// to (chain.None when unset); its removal terminates the run
	// (Table 1.5).
	OpTarget chain.Handle
	// PassTarget is the corner robot a passing run travels to (Fig 8,
	// chain.None when unset); its removal terminates the run (Table 1.4).
	PassTarget chain.Handle
	// PassBudget is an engine safeguard: the maximum number of rounds the
	// current passing operation may still take (the paper bounds passing
	// by 6 rounds; exceeding the budget marks the run stuck).
	PassBudget int
	// StartRound and Kind are instrumentation.
	StartRound int
	Kind       StartKind
	// justStarted marks a run created this round; it takes its first
	// action next round (Fig 7: runs start in round i, act from i+1).
	justStarted bool
}

// String summarises the run for debugging.
func (r *Run) String() string {
	return fmt.Sprintf("run#%d{dir=%+d mode=%s host=%d}", r.ID, r.Dir, r.Mode, int(r.Host))
}
