package sim

import (
	"fmt"

	"gridgather/internal/core"
	"gridgather/internal/grid"
)

// panicAt wraps a strategy so that stepping round `round` panics before
// the strategy sees the round: the trigger for the engine's panic
// containment tests (TestEnginePanic*).
type panicAt struct {
	core.Strategy
	round int
}

// StepActivated panics at the armed round and steps the wrapped strategy
// otherwise.
func (p panicAt) StepActivated(active []bool) (core.RoundReport, error) {
	if p.Round() == p.round {
		panic(fmt.Sprintf("sim: injected strategy panic (round %d)", p.round))
	}
	return p.Strategy.StepActivated(active)
}

// ArmPanic makes the engine's strategy panic when it steps the given
// round.
func ArmPanic(e *Engine, round int) { e.alg = panicAt{Strategy: e.alg, round: round} }

// shiftAt wraps a strategy so that, once, at round `round`, every robot
// moves one column right instead of the strategy stepping: every move is a
// king step and every edge survives, but the bounding box grows — a round
// only the bbox-monotone invariant rejects (TestCheckInvariantsCatchesGrowingBox).
type shiftAt struct {
	core.Strategy
	round int
	done  bool
}

// StepActivated shifts the chain at the armed round and steps the wrapped
// strategy otherwise.
func (s *shiftAt) StepActivated(active []bool) (core.RoundReport, error) {
	if s.done || s.Round() != s.round {
		return s.Strategy.StepActivated(active)
	}
	s.done = true
	ch := s.Chain()
	for _, h := range ch.Handles() {
		ch.MoveBy(h, grid.V(1, 0))
	}
	return core.RoundReport{Round: s.round, ChainLen: ch.Len()}, nil
}

// ArmShift makes the engine's strategy shift the whole chain one column
// right instead of stepping the given round.
func ArmShift(e *Engine, round int) { e.alg = &shiftAt{Strategy: e.alg, round: round} }
