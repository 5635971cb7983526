package core

import (
	"fmt"
	"slices"
	"strings"

	"gridgather/internal/chain"
)

// Strategy is the contract between a gathering strategy and every consumer
// of one — the round engine (internal/sim), the conformance layer
// (internal/oracle), the experiment suite and the CLIs. A strategy owns
// its chain, its private per-round state and the round counter; the engine
// owns activation (which robots act), the watchdog, invariant checking and
// all cross-round accounting (DESIGN.md §10).
//
// *Algorithm (the paper's strategy) is the reference implementation;
// *LinTime is the linear-time contraction successor. New strategies
// register in NewStrategy.
type Strategy interface {
	// Chain exposes the simulated chain (read-only use expected).
	Chain() *chain.Chain
	// Config returns the active (validated) configuration.
	Config() Config
	// Round returns the number of rounds executed so far.
	Round() int
	// Gathered reports whether the chain fits a 2x2 square.
	Gathered() bool
	// Step executes one fully synchronous round.
	Step() (RoundReport, error)
	// StepActivated executes one round in which only the robots whose
	// ring index is marked true act; nil means every robot (FSYNC), and a
	// set of any length but the chain's is an error. Stepping a gathered
	// chain is a no-op, whatever the set: it reports Gathered with the
	// chain's length, consumes no round and checks nothing else.
	StepActivated(active []bool) (RoundReport, error)
	// Runs returns the active run states for instrumentation and the
	// engine's occupancy audit; strategies without a run machinery
	// return nil.
	Runs() []*Run
	// Snapshot captures the strategy's cross-round state for the
	// checkpoint codec (snapshot.go, DESIGN.md §11); RestoreStrategy
	// reverses it. Valid between rounds only — per-round scratch is not
	// state and is not captured.
	Snapshot() StrategySnapshot
}

// Statically assert that both registered strategies satisfy the contract.
var (
	_ Strategy = (*Algorithm)(nil)
	_ Strategy = (*LinTime)(nil)
)

// StrategyName identifies a registered strategy. The zero value selects
// the paper's algorithm, mirroring sched.Config (zero = FSYNC): existing
// call sites, fixtures and serialised results that predate the strategy
// arena keep their meaning unchanged.
type StrategyName string

// The registered strategies.
const (
	// StrategyPaper is the IPDPS 2016 strategy (*Algorithm): merge
	// patterns, runs, pipelining. The zero value.
	StrategyPaper StrategyName = ""
	// StrategyLinTime is the linear-time contraction strategy (*LinTime):
	// every robot clamps into the bounding box shrunk by one per side.
	StrategyLinTime StrategyName = "lintime"
)

// String names the strategy; the zero value prints as "paper".
func (s StrategyName) String() string {
	if s == StrategyPaper {
		return "paper"
	}
	return string(s)
}

// strategyNames lists the registered strategies in registration order:
// Valid, ParseStrategy and StrategyNames all read it.
var strategyNames = []StrategyName{StrategyPaper, StrategyLinTime}

// Valid reports whether the name is registered.
func (s StrategyName) Valid() error {
	if slices.Contains(strategyNames, s) {
		return nil
	}
	return errUnknownStrategy(string(s))
}

// errUnknownStrategy is the error for a name outside the registry.
func errUnknownStrategy(s string) error {
	return fmt.Errorf("core: unknown strategy %q (have: %s)", s, strings.Join(StrategyNames(), ", "))
}

// MarshalText encodes the name (the zero value as "paper"), so JSON
// carrying a StrategyName serialises self-describingly, like StartKind and
// TerminateReason. Unknown names fail loudly instead of leaking through.
func (s StrategyName) MarshalText() ([]byte, error) {
	if err := s.Valid(); err != nil {
		return nil, err
	}
	return []byte(s.String()), nil
}

// UnmarshalText decodes a name written by MarshalText. The empty string is
// accepted as the paper strategy (the zero value a pre-arena serialisation
// omits).
func (s *StrategyName) UnmarshalText(text []byte) error {
	parsed, err := ParseStrategy(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// ParseStrategy parses the -strategy flag syntax shared by the CLIs: a
// registered strategy's String form, "paper" or "lintime" (the empty
// string is the paper default).
func ParseStrategy(s string) (StrategyName, error) {
	if s == "" {
		return StrategyPaper, nil
	}
	for _, name := range strategyNames {
		if name.String() == s {
			return name, nil
		}
	}
	return StrategyPaper, errUnknownStrategy(s)
}

// StrategyNames lists the registered strategies in registration order,
// rendered for flag help text and error messages.
func StrategyNames() []string {
	out := make([]string, len(strategyNames))
	for i, name := range strategyNames {
		out[i] = name.String()
	}
	return out
}

// NewStrategy constructs the named strategy on the chain (owned by the
// strategy afterwards) — the single registry every consumer builds
// through.
func NewStrategy(name StrategyName, ch *chain.Chain, cfg Config) (Strategy, error) {
	switch name {
	case StrategyPaper:
		return New(ch, cfg)
	case StrategyLinTime:
		return NewLinTime(ch, cfg)
	default:
		return nil, name.Valid()
	}
}
