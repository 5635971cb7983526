package chaos

import (
	"context"
	"fmt"
	"math/rand"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/oracle"
	"gridgather/internal/parallel"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// Scenario is one chaos experiment: a workload plus the faults to arm
// against it. The zero values of the injection fields mean "no injection"
// — a zero Scenario (plus a Build) is a clean control run.
type Scenario struct {
	// Name labels the scenario in test output.
	Name string
	// Build produces the start configuration.
	Build func() (*chain.Chain, error)
	// Fault is the engine defect to arm (core.FaultNone for none), and
	// FaultRound the round it activates from.
	Fault      core.Fault
	FaultRound int
	// CancelRound, when positive, cancels the run's context once the
	// engine reaches that round boundary.
	CancelRound int
	// CheckpointRound, when positive, pushes the strategy through the
	// checkpoint codec mid-check (oracle.Options.CheckpointRound).
	CheckpointRound int
	// Sched is the activation model.
	Sched sched.Config
}

// RunOracle runs the scenario through the conformance oracle with its
// fault and checkpoint injections armed. For a wrong-answer fault the
// caller expects a non-nil error (the oracle caught the defect); for a
// clean scenario, nil.
func RunOracle(s Scenario) error {
	ch, err := s.Build()
	if err != nil {
		return fmt.Errorf("chaos: build %s: %w", s.Name, err)
	}
	_, err = oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{
		Fault:           s.Fault,
		FaultRound:      s.FaultRound,
		CheckpointRound: s.CheckpointRound,
		Sched:           s.Sched,
	})
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

// CampaignCell is one cell of a chaos campaign: its index, the
// deterministic seed that reproduces it (parallel.TaskSeed), and the error
// it ended with (nil for a clean gather).
type CampaignCell struct {
	Index int
	Seed  int64
	Err   error
}

// PanicCampaign runs a cells-wide gathering campaign in draining mode
// (parallel.ForEachAll): every cell simulates its own seeded random-walk
// chain, and the armed cell's engine panics in its first round
// (core.FaultPanic). Panic isolation holds when exactly the armed
// cell reports an error — a *sim.PanicError, the contained form — and
// every other cell still gathers; each cell carries its TaskSeed so any
// failure is reproducible in isolation.
func PanicCampaign(baseSeed int64, cells, armedCell, campaignWorkers int) []CampaignCell {
	out := make([]CampaignCell, cells)
	errs := parallel.ForEachAll(campaignWorkers, cells, func(i int) error {
		seed := parallel.TaskSeed(baseSeed, i, 0)
		ch, err := generate.RandomClosedWalk(24, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		e, err := sim.NewEngine(ch, sim.Options{})
		if err != nil {
			return err
		}
		if i == armedCell {
			e.Algorithm().InjectFaultAt(core.FaultPanic, 1)
		}
		_, err = e.Run()
		return err
	})
	for i := range out {
		out[i] = CampaignCell{Index: i, Seed: parallel.TaskSeed(baseSeed, i, 0), Err: errs[i]}
	}
	return out
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
