package core

import (
	"errors"
	"fmt"

	"gridgather/internal/chain"
)

// This file is the strategy layer of the checkpoint codec (DESIGN.md §11):
// StrategySnapshot captures everything a strategy keeps between rounds —
// for the paper algorithm the run registry, the round counter and the ID
// wells; for lintime just the round counter. Per-round scratch is
// deliberately absent: nothing in it survives a round (DESIGN.md §5), so a
// snapshot taken between rounds plus the chain snapshot is the complete
// strategy state.

// RunSnapshot is the serialisable form of one Run. All fields mirror Run;
// JustStarted exports the unexported flag because a run created in round i
// only becomes visible (and first acts) in round i+1 — dropping it would
// let a restored run act one round early.
type RunSnapshot struct {
	ID           int          `json:"id"`
	Host         chain.Handle `json:"host"`
	Dir          int          `json:"dir"`
	Mode         RunMode      `json:"mode"`
	TraverseLeft int          `json:"traverseLeft,omitempty"`
	OpOrigin     chain.Handle `json:"opOrigin"`
	OpTarget     chain.Handle `json:"opTarget"`
	PassTarget   chain.Handle `json:"passTarget"`
	PassBudget   int          `json:"passBudget,omitempty"`
	StartRound   int          `json:"startRound"`
	Kind         StartKind    `json:"kind"`
	JustStarted  bool         `json:"justStarted,omitempty"`
}

// StrategySnapshot is the cross-round state of a Strategy, captured by
// Strategy.Snapshot and rebuilt by RestoreStrategy. Runs is nil for
// strategies without a run machinery (lintime).
type StrategySnapshot struct {
	Round    int           `json:"round"`
	NextRun  int           `json:"nextRun,omitempty"`
	NextPair int           `json:"nextPair,omitempty"`
	Runs     []RunSnapshot `json:"runs,omitempty"`
}

// ErrBadStrategySnapshot reports a strategy snapshot that is inconsistent
// with the chain it is being restored onto or internally malformed.
var ErrBadStrategySnapshot = errors.New("core: invalid strategy snapshot")

// Snapshot implements Strategy for the paper algorithm: the run registry in
// registry order (the order kernels iterate, so it must be preserved), the
// round counter and the run/pair ID wells.
func (a *Algorithm) Snapshot() StrategySnapshot {
	s := StrategySnapshot{
		Round:    a.round,
		NextRun:  a.nextRun,
		NextPair: a.nextPair,
	}
	for _, r := range a.runs {
		s.Runs = append(s.Runs, RunSnapshot{
			ID:           r.ID,
			Host:         r.Host,
			Dir:          r.Dir,
			Mode:         r.Mode,
			TraverseLeft: r.TraverseLeft,
			OpOrigin:     r.OpOrigin,
			OpTarget:     r.OpTarget,
			PassTarget:   r.PassTarget,
			PassBudget:   r.PassBudget,
			StartRound:   r.StartRound,
			Kind:         r.Kind,
			JustStarted:  r.justStarted,
		})
	}
	return s
}

// Snapshot implements Strategy for the contraction strategy: the round
// counter is its only cross-round state.
func (lt *LinTime) Snapshot() StrategySnapshot {
	return StrategySnapshot{Round: lt.round}
}

// RestoreStrategy rebuilds the named strategy on the (already restored)
// chain from a snapshot, validating every field against the chain instead
// of trusting the bytes: hosts must be live handles, optional targets must
// be in handle range, directions, modes and kinds must be legal, and IDs
// must stay below their wells. The chain is owned by the strategy
// afterwards, exactly like NewStrategy.
func RestoreStrategy(name StrategyName, ch *chain.Chain, cfg Config, snap StrategySnapshot) (Strategy, error) {
	if snap.Round < 0 {
		return nil, fmt.Errorf("%w: negative round %d", ErrBadStrategySnapshot, snap.Round)
	}
	switch name {
	case StrategyPaper:
		a, err := New(ch, cfg)
		if err != nil {
			return nil, err
		}
		if err := a.restore(snap); err != nil {
			return nil, err
		}
		return a, nil
	case StrategyLinTime:
		if len(snap.Runs) != 0 || snap.NextRun != 0 || snap.NextPair != 0 {
			return nil, fmt.Errorf("%w: lintime carries no run registry", ErrBadStrategySnapshot)
		}
		lt, err := NewLinTime(ch, cfg)
		if err != nil {
			return nil, err
		}
		lt.round = snap.Round
		return lt, nil
	default:
		return nil, name.Valid()
	}
}

// restore loads the snapshot into a freshly constructed Algorithm,
// rebuilding the run mask and the run counts the same way the end-of-round
// rebuild does.
func (a *Algorithm) restore(snap StrategySnapshot) error {
	nh := a.ch.NumHandles()
	for i := range snap.Runs {
		rs := &snap.Runs[i]
		switch {
		case rs.ID < 0 || rs.ID >= snap.NextRun:
			return fmt.Errorf("%w: run ID %d outside well [0,%d)", ErrBadStrategySnapshot, rs.ID, snap.NextRun)
		case !a.ch.Contains(rs.Host):
			return fmt.Errorf("%w: run %d hosted on non-live handle %d", ErrBadStrategySnapshot, rs.ID, rs.Host)
		case rs.Dir != +1 && rs.Dir != -1:
			return fmt.Errorf("%w: run %d has direction %d", ErrBadStrategySnapshot, rs.ID, rs.Dir)
		case rs.Mode != ModeNormal && rs.Mode != ModeTraverse && rs.Mode != ModePassing:
			return fmt.Errorf("%w: run %d has unknown mode %d", ErrBadStrategySnapshot, rs.ID, int(rs.Mode))
		case rs.Kind != StartStairway && rs.Kind != StartCorner:
			return fmt.Errorf("%w: run %d has unknown start kind %d", ErrBadStrategySnapshot, rs.ID, int(rs.Kind))
		case rs.TraverseLeft < 0 || rs.PassBudget < 0:
			return fmt.Errorf("%w: run %d has negative budget", ErrBadStrategySnapshot, rs.ID)
		}
		// Operation targets may reference handles a merge has since removed
		// (their termination is detected next round), but never handles that
		// were never issued.
		for _, h := range [3]chain.Handle{rs.OpOrigin, rs.OpTarget, rs.PassTarget} {
			if h != chain.None && (h < 0 || int(h) >= nh) {
				return fmt.Errorf("%w: run %d references handle %d outside [0,%d)", ErrBadStrategySnapshot, rs.ID, h, nh)
			}
		}
		run := &Run{
			ID:           rs.ID,
			Host:         rs.Host,
			Dir:          rs.Dir,
			Mode:         rs.Mode,
			TraverseLeft: rs.TraverseLeft,
			OpOrigin:     rs.OpOrigin,
			OpTarget:     rs.OpTarget,
			PassTarget:   rs.PassTarget,
			PassBudget:   rs.PassBudget,
			StartRound:   rs.StartRound,
			Kind:         rs.Kind,
			justStarted:  rs.JustStarted,
		}
		a.runs = append(a.runs, run)
	}
	a.indexRuns()
	a.round = snap.Round
	a.nextRun = snap.NextRun
	a.nextPair = snap.NextPair
	return nil
}
