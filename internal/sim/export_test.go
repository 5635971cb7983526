package sim

import (
	"fmt"

	"gridgather/internal/core"
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
