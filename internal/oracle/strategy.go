package oracle

import (
	"fmt"
	"math"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/sched"
)

// checkStrategy is the conformance path for strategies without a naive
// model mirror (today: lintime). There is no lockstep to diverge from, so
// the check is the invariant battery — minus the PaperOnly entries, whose
// premise is the paper's run machinery — run on the strategy's chain after
// every round, plus the liveness watchdog: under FSYNC a strategy that
// does not gather within the (rate-unscaled) simulator budget is a
// liveness divergence; under non-FSYNC schedulers watchdog expiry without
// a violation is a clean DNF, exactly like the paper path. A step error
// from the strategy itself (e.g. the lintime edge guard firing) is
// reported as a divergence pinned to its round.
func checkStrategy(cfg core.Config, seed *chain.Chain, opts Options) (Result, error) {
	positions := seed.Positions()
	res := Result{InitialLen: len(positions)}

	strat, err := core.NewStrategy(opts.Strategy, seed.Clone(), cfg)
	if err != nil {
		return res, err
	}
	schd, err := sched.New(opts.Sched)
	if err != nil {
		return res, err
	}
	fullySync := schd.FullySync()

	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		// No theorem cap applies outside the paper strategy; use the
		// simulator's generous liveness watchdog, scaled by the inverse
		// activation rate for non-FSYNC schedulers.
		maxRounds = 60*len(positions) + 400
		if rate := schd.MinActivationRate(len(positions)); rate > 0 && rate < 1 {
			maxRounds = int(math.Ceil(float64(maxRounds) / rate))
		}
	}
	battery := opts.Invariants
	if battery == nil {
		battery = Battery()
	}
	kept := make([]Invariant, 0, len(battery))
	for _, inv := range battery {
		if inv.PaperOnly || (!fullySync && inv.FSYNCOnly) {
			continue
		}
		kept = append(kept, inv)
	}
	battery = kept

	st := &RoundState{
		Chain:          strat.Chain(),
		Cfg:            strat.Config(),
		InitialLen:     len(positions),
		LastMergeRound: -1,
	}

	var activeBuf []bool
	for round := 0; ; round++ {
		if strat.Gathered() {
			res.Rounds = round
			res.FinalLen = strat.Chain().Len()
			res.Gathered = true
			return res, nil
		}
		if round >= maxRounds {
			if !fullySync {
				res.Rounds = round
				res.FinalLen = strat.Chain().Len()
				return res, nil
			}
			return res, &Divergence{Round: round, Field: "liveness",
				Engine: fmt.Sprintf("%s not gathered after %d rounds (n=%d, %d robots left)",
					opts.Strategy, round, res.InitialLen, strat.Chain().Len())}
		}

		// The checkpoint axis, mirroring the paper path: continue the check
		// against the strategy's codec round-trip.
		if opts.CheckpointRound > 0 && round == opts.CheckpointRound {
			rt, err := roundTripStrategy(opts.Strategy, strat)
			if err != nil {
				return res, &Divergence{Round: round, Field: "checkpoint", Engine: err.Error()}
			}
			strat = rt
			st.Chain = strat.Chain()
		}

		active := activation(schd, round, strat.Chain().Len(), &activeBuf)

		st.PrevBounds = strat.Chain().Bounds()
		rep, err := strat.StepActivated(active)
		if err != nil {
			return res, &Divergence{Round: round, Field: "step-error", Engine: err.Error()}
		}
		res.TotalMerges += rep.Merges()
		st.Report = rep
		for _, inv := range battery {
			if err := inv.Check(st); err != nil {
				return res, &Divergence{Round: round,
					Field:  "invariant:" + inv.Name,
					Engine: err.Error()}
			}
		}
		if rep.Merges() > 0 {
			st.LastMergeRound = round
		}
	}
}
