package chaos

import (
	"context"
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/oracle"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// Scenario is one chaos experiment: a workload plus the round at which to
// cancel it. A zero Scenario (plus a Build) is a clean control run.
type Scenario struct {
	// Name labels the scenario in test output.
	Name string
	// Build produces the start configuration.
	Build func() (*chain.Chain, error)
	// CancelRound, when positive, cancels the run's context once the
	// engine reaches that round boundary.
	CancelRound int
	// Sched is the activation model.
	Sched sched.Config
}

// RunOracle builds the scenario's chain and runs the conformance oracle on
// it under opts. For an armed model fault (opts.Fault) the caller expects
// a non-nil error (the oracle caught the defect); for a clean check, nil.
func RunOracle(s Scenario, opts oracle.Options) error {
	ch, err := s.Build()
	if err != nil {
		return fmt.Errorf("chaos: build %s: %w", s.Name, err)
	}
	_, err = oracle.CheckWithOptions(core.DefaultConfig(), ch, opts)
	return err
}

// RunCancel executes the scenario under a context that is cancelled at the
// scenario's CancelRound boundary and returns the partial Result, the
// run error, and the engine (for checkpointing the interrupted state).
func RunCancel(s Scenario) (sim.Result, error, *sim.Engine) {
	ch, err := s.Build()
	if err != nil {
		return sim.Result{}, err, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := s.CancelRound
	e, err := sim.NewEngine(ch, sim.Options{
		Sched: s.Sched,
		Observer: sim.ObserverFunc(func(_ *chain.Chain, rep core.RoundReport) {
			if rep.Round == stop-1 {
				cancel()
			}
		}),
	})
	if err != nil {
		return sim.Result{}, err, nil
	}
	res, err := e.RunContext(ctx)
	return res, err, e
}

// FlipByte returns a copy of data with byte i inverted — the unit step of
// the checkpoint-corruption battery.
func FlipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xff
	return out
}

// Truncations returns representative truncated prefixes of data: empty,
// one byte, the envelope head, half, and all-but-one.
func Truncations(data []byte) [][]byte {
	cuts := []int{0, 1, 16, len(data) / 2, len(data) - 1}
	out := make([][]byte, 0, len(cuts))
	for _, n := range cuts {
		if n <= len(data) {
			out = append(out, data[:n])
		}
	}
	return out
}
