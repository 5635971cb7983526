package oracle

import (
	"encoding/json"
	"fmt"
	"slices"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/grid"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// Divergence is a disagreement between the fast engine and the naive
// model, or an invariant violation, pinned to the round it happened in.
type Divergence struct {
	Round int
	// Field names what disagreed (e.g. "positions", "run-registry",
	// "report.ChainLen") or the violated invariant ("invariant:bbox-monotone").
	Field  string
	Engine string
	Model  string
}

// Error implements error.
func (d *Divergence) Error() string {
	if d.Model == "" {
		return fmt.Sprintf("oracle: round %d: %s: %s", d.Round, d.Field, d.Engine)
	}
	return fmt.Sprintf("oracle: round %d: %s diverged:\n  engine: %s\n  model:  %s",
		d.Round, d.Field, d.Engine, d.Model)
}

// Options configures CheckWithOptions.
type Options struct {
	// MaxRounds caps the lockstep execution. Zero selects the Theorem 1
	// bound (2L+1)*n for the paper strategy's standard FSYNC pipeline, and
	// the engine's watchdog (sim.RoundBudget) for everything the theorem
	// does not speak about.
	MaxRounds int
	// Fault arms a deliberate defect in the naive model (conformance
	// self-tests). The comparison is symmetric, so a broken model is
	// caught at exactly the round a broken engine would be. Only a
	// strategy with a model can carry one; CheckWithOptions rejects a
	// fault on any other strategy, and an unknown fault value.
	Fault Fault
	// FaultRound is the round Fault activates from; zero arms it from the
	// start. The self-tests use it to verify the oracle catches defects
	// that only appear deep into a run.
	FaultRound int
	// CheckpointRound, when positive, pushes the strategy through the
	// checkpoint codec between rounds CheckpointRound-1 and
	// CheckpointRound: chain and strategy snapshots are serialised to
	// JSON, decoded, validated and rebuilt, and the check continues
	// against the rebuilt strategy. Any infidelity in the codec surfaces
	// as a lockstep divergence (or invariant violation) in the rounds
	// that follow — the fuzz campaign's checkpoint axis (DESIGN.md §11).
	CheckpointRound int
	// Invariants is the battery to run on the strategy's chain after every
	// round; nil selects Battery(). An empty non-nil slice disables it.
	// Invariants marked FSYNCOnly are skipped under non-FSYNC schedulers,
	// and those marked PaperOnly for every other strategy.
	Invariants []sim.Invariant
	// Sched selects the activation model both backends step under: one
	// scheduler instance fills one activation set per round and the engine
	// and the model execute it in lockstep. The zero value is FSYNC.
	//
	// Liveness semantics depend on the model: under FSYNC the (2L+1)n
	// Theorem 1 cap applies and not gathering in time is a divergence;
	// under any other scheduler the theorem does not speak, so the check
	// runs against the engine's watchdog (sim.RoundBudget) and reaching it
	// without divergence is a clean DNF: Check returns a Result with
	// Gathered == false and a nil error. Safety — agreement plus the
	// non-FSYNCOnly invariants — is asserted either way, every round.
	Sched sched.Config
	// Strategy selects the gathering strategy to check. The zero value
	// (the paper strategy) is stepped beside the naive model, which
	// mirrors it. Other strategies have no model yet: the same round loop
	// checks them with the invariant battery (minus the PaperOnly
	// entries) and the simulator's liveness watchdog — under FSYNC not
	// gathering within it is a divergence, under non-FSYNC schedulers a
	// clean DNF.
	Strategy core.StrategyName
}

// Result summarises a conformance check that found no divergence.
type Result struct {
	Rounds      int
	InitialLen  int
	FinalLen    int
	TotalMerges int
	// Gathered reports whether the configuration gathered within the round
	// budget. Always true on a nil-error FSYNC check (not gathering in
	// time is a liveness divergence there); under non-FSYNC schedulers a
	// false value is a DNF, not a failure.
	Gathered bool
}

// Check steps the fast engine (internal/core on the SoA chain) and the
// naive model in lockstep from the same start configuration, comparing
// positions, merges, run registry, round reports and termination after
// every round, and running the invariant battery on the engine's chain.
// The seed chain is not modified. It returns the first divergence or
// invariant violation as a *Divergence error.
func Check(cfg core.Config, seed *chain.Chain, maxRounds int) (Result, error) {
	return CheckWithOptions(cfg, seed, Options{MaxRounds: maxRounds})
}

// CheckWithOptions is Check with the Options. Every strategy runs the one
// round loop below; the naive model steps beside the paper strategy only
// and is nil for the others.
func CheckWithOptions(cfg core.Config, seed *chain.Chain, opts Options) (Result, error) {
	positions := seed.Positions()
	res := Result{InitialLen: len(positions)}
	if seed.NumHandles() != seed.Len() {
		// A spliced chain has dead handles; the model would renumber its
		// robots and every comparison would be vacuously wrong.
		return res, fmt.Errorf("oracle: seed must be a start configuration (chain has %d dead handles)",
			seed.NumHandles()-seed.Len())
	}
	if opts.Fault < FaultNone || opts.Fault > FaultSkipSpikePriority {
		return res, fmt.Errorf("oracle: unknown fault %v", opts.Fault)
	}

	strat, err := core.NewStrategy(opts.Strategy, seed.Clone(), cfg)
	if err != nil {
		return res, err
	}
	paper := opts.Strategy == core.StrategyPaper
	var model *Model
	if paper {
		if model, err = NewModel(positions, cfg); err != nil {
			return res, err
		}
		model.fault, model.faultFrom = opts.Fault, opts.FaultRound
	} else if opts.Fault != FaultNone {
		// The defects live in the model: armed here, the check would pass
		// without testing anything.
		return res, fmt.Errorf("oracle: fault %v needs a naive model, and strategy %s has none", opts.Fault, opts.Strategy)
	}
	schd, err := sched.New(opts.Sched)
	if err != nil {
		return res, err
	}
	fullySync := schd.FullySync()

	// The theorem assumes the paper's full FSYNC pipeline; other
	// strategies, the ablations and the relaxed activation models get the
	// engine's watchdog instead.
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 && paper && fullySync && !cfg.DisableRunStarts && !cfg.SequentialRuns {
		maxRounds = Theorem1Cap(strat.Config(), len(positions))
	}
	maxRounds = sim.RoundBudget(maxRounds, len(positions), schd.MinActivationRate(len(positions)))
	battery := opts.Invariants
	if battery == nil {
		battery = Battery()
	}
	kept := make([]sim.Invariant, 0, len(battery))
	for _, inv := range battery {
		if (inv.PaperOnly && !paper) || (inv.FSYNCOnly && !fullySync) {
			continue
		}
		kept = append(kept, inv)
	}
	battery = kept
	st := &sim.RoundState{
		Cfg:            strat.Config(), // post-Validate (MaxMergeLen clamped)
		InitialLen:     len(positions),
		LastMergeRound: -1,
	}

	var activeBuf []bool
	for round := 0; ; round++ {
		gathered := strat.Gathered()
		if model != nil && model.Gathered() != gathered {
			return res, &Divergence{Round: round, Field: "gathered",
				Engine: fmt.Sprintf("%v", gathered), Model: fmt.Sprintf("%v", !gathered)}
		}
		if gathered {
			res.Rounds = round
			res.FinalLen = strat.Chain().Len()
			res.Gathered = true
			return res, nil
		}
		if round >= maxRounds {
			if !fullySync {
				// Theorem 1 is FSYNC-only: exhausting the watchdog without a
				// divergence is a DNF result, not a conformance failure.
				res.Rounds = round
				res.FinalLen = strat.Chain().Len()
				return res, nil
			}
			msg := fmt.Sprintf("not gathered after %d rounds (n=%d, %d robots left)",
				round, res.InitialLen, strat.Chain().Len())
			if !paper {
				msg = fmt.Sprintf("%s %s", opts.Strategy, msg)
			}
			return res, &Divergence{Round: round, Field: "liveness", Engine: msg}
		}

		// The checkpoint axis: swap the strategy for its codec round-trip
		// at the chosen round boundary and keep checking the rebuilt one.
		if opts.CheckpointRound > 0 && round == opts.CheckpointRound {
			if strat, err = roundTripStrategy(opts.Strategy, strat); err != nil {
				return res, &Divergence{Round: round, Field: "checkpoint", Engine: err.Error()}
			}
		}

		// One scheduler, one activation set, both backends: the lockstep
		// compares the engine and the model on identical rounds, never the
		// scheduler against itself.
		active := activation(schd, round, strat.Chain().Len(), &activeBuf)

		st.Begin(strat.Chain())
		rep, err := strat.StepActivated(active)
		if model != nil {
			err = lockstep(round, strat, model, active, rep, err)
		} else if err != nil {
			err = &Divergence{Round: round, Field: "step-error", Engine: err.Error()}
		}
		if err != nil {
			return res, err
		}
		res.TotalMerges += rep.Merges()
		if name, err := st.Check(battery, rep, strat.Runs()); err != nil {
			return res, &Divergence{Round: round, Field: "invariant:" + name, Engine: err.Error()}
		}
	}
}

// lockstep steps the model through the round the engine just stepped
// (report eRep, error eErr) and returns the first disagreement in step
// errors, reports, configuration or run registry as a *Divergence.
func lockstep(round int, s core.Strategy, m *Model, active []bool, eRep core.RoundReport, eErr error) error {
	mRep, mErr := m.StepActivated(active)
	if eErr != nil || mErr != nil {
		if (eErr == nil) != (mErr == nil) {
			return &Divergence{Round: round, Field: "step-error",
				Engine: errString(eErr), Model: errString(mErr)}
		}
		// Both backends failed the same round: agreed, but still fatal.
		return fmt.Errorf("oracle: both backends failed round %d: engine: %v; model: %v", round, eErr, mErr)
	}
	if d := compareReports(round, eRep, mRep); d != nil {
		return d
	}
	if d := compareConfiguration(round, s.Chain(), m); d != nil {
		return d
	}
	if d := compareRegistries(round, s.Runs(), m); d != nil {
		return d
	}
	return nil
}

// activation draws the round's activation set for n robots into buf, or
// returns nil under a fully synchronous scheduler, as sim.Engine does.
func activation(schd sched.Scheduler, round, n int, buf *[]bool) []bool {
	if schd.FullySync() {
		return nil
	}
	*buf = slices.Grow((*buf)[:0], n)[:n]
	schd.Activate(round, *buf)
	return *buf
}

// CheckAllAwake checks that FSYNC is the activation set with every robot
// awake (DESIGN.md §8): sim.Gather of the seed under FSYNC and under
// random:p=1, which wakes every robot through a drawn set, must return
// identical Results and errors. The stall detector runs only in the
// second, so it shows as a mismatch if it ends that run. The seed chain
// is not modified.
func CheckAllAwake(cfg core.Config, seed *chain.Chain, strategy core.StrategyName) error {
	var runs [2]string
	for i, sc := range []sched.Config{{}, {Kind: sched.Random, P: 1}} {
		res, err := sim.Gather(seed.Clone(), sim.Options{Config: cfg, Strategy: strategy, Sched: sc})
		runs[i] = fmt.Sprintf("%+v (error: %s)", res, errString(err))
	}
	if runs[0] != runs[1] {
		return fmt.Errorf("oracle: FSYNC and random:p=1 runs differ:\n  fsync:      %s\n  random:p=1: %s", runs[0], runs[1])
	}
	return nil
}

// roundTripStrategy pushes a strategy and its chain through the checkpoint
// codec's serialised form — chain snapshot plus strategy snapshot, via JSON
// — and rebuilds both from the decoded bytes, exactly as sim.Restore does.
// It is the fidelity probe behind Options.CheckpointRound: the caller swaps
// the returned strategy in for the original and lets the subsequent rounds
// expose any state the codec dropped or distorted.
func roundTripStrategy(name core.StrategyName, s core.Strategy) (core.Strategy, error) {
	type payload struct {
		Chain chain.Snapshot        `json:"chain"`
		Strat core.StrategySnapshot `json:"strat"`
	}
	data, err := json.Marshal(payload{s.Chain().Snapshot(), s.Snapshot()})
	if err != nil {
		return nil, err
	}
	var back payload
	if err := json.Unmarshal(data, &back); err != nil {
		return nil, err
	}
	ch, err := chain.FromSnapshot(back.Chain)
	if err != nil {
		return nil, err
	}
	return core.RestoreStrategy(name, ch, s.Config(), back.Strat)
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// compareReports checks every field of the two round reports, merge
// events in execution order (both backends resolve seeded by the movers
// in move order, so even the interleaving must agree).
func compareReports(round int, e, m core.RoundReport) *Divergence {
	d := func(field string, ev, mv any) *Divergence {
		return &Divergence{Round: round, Field: "report." + field,
			Engine: fmt.Sprintf("%+v", ev), Model: fmt.Sprintf("%+v", mv)}
	}
	switch {
	case e.Round != m.Round:
		return d("Round", e.Round, m.Round)
	case e.ChainLen != m.ChainLen:
		return d("ChainLen", e.ChainLen, m.ChainLen)
	case e.Gathered != m.Gathered:
		return d("Gathered", e.Gathered, m.Gathered)
	case e.MergePatterns != m.MergePatterns:
		return d("MergePatterns", e.MergePatterns, m.MergePatterns)
	case e.MergeHops != m.MergeHops:
		return d("MergeHops", e.MergeHops, m.MergeHops)
	case e.RunnerHops != m.RunnerHops:
		return d("RunnerHops", e.RunnerHops, m.RunnerHops)
	case e.StartHops != m.StartHops:
		return d("StartHops", e.StartHops, m.StartHops)
	case e.ActiveRuns != m.ActiveRuns:
		return d("ActiveRuns", e.ActiveRuns, m.ActiveRuns)
	case e.Anomalies != m.Anomalies:
		return d("Anomalies", e.Anomalies, m.Anomalies)
	}
	if len(e.Starts) != len(m.Starts) {
		return d("Starts", e.Starts, m.Starts)
	}
	for i := range e.Starts {
		if e.Starts[i] != m.Starts[i] {
			return d(fmt.Sprintf("Starts[%d]", i), e.Starts[i], m.Starts[i])
		}
	}
	if len(e.Ends) != len(m.Ends) {
		return d("Ends", e.Ends, m.Ends)
	}
	for i := range e.Ends {
		if e.Ends[i] != m.Ends[i] {
			return d(fmt.Sprintf("Ends[%d]", i), e.Ends[i], m.Ends[i])
		}
	}
	if len(e.MergeEvents) != len(m.MergeEvents) {
		return d("MergeEvents", e.MergeEvents, m.MergeEvents)
	}
	for i := range e.MergeEvents {
		if e.MergeEvents[i] != m.MergeEvents[i] {
			return d(fmt.Sprintf("MergeEvents[%d]", i), e.MergeEvents[i], m.MergeEvents[i])
		}
	}
	return nil
}

// compareConfiguration checks the full ring: same robots (by ID), in the
// same chain order, at the same positions, with the same bounding box.
func compareConfiguration(round int, ch *chain.Chain, m *Model) *Divergence {
	ids := m.IDs()
	pos := m.Positions()
	hs := ch.Handles()
	if len(hs) != len(ids) {
		return &Divergence{Round: round, Field: "positions",
			Engine: fmt.Sprintf("%d robots", len(hs)), Model: fmt.Sprintf("%d robots", len(ids))}
	}
	for i, h := range hs {
		if int(h) != ids[i] || ch.PosOf(h) != pos[i] {
			return &Divergence{Round: round, Field: fmt.Sprintf("positions[%d]", i),
				Engine: fmt.Sprintf("robot %d at %v", int(h), ch.PosOf(h)),
				Model:  fmt.Sprintf("robot %d at %v", ids[i], pos[i])}
		}
	}
	if eb, mb := ch.Bounds(), m.Bounds(); eb != mb {
		return &Divergence{Round: round, Field: "bounds",
			Engine: fmt.Sprintf("%v", eb), Model: fmt.Sprintf("%v", mb)}
	}
	return nil
}

// compareRegistries checks the full run registry, run by run in creation
// order: hosts, directions, modes, traverse counters, operation targets
// and passing budgets must all agree.
func compareRegistries(round int, ers []*core.Run, m *Model) *Divergence {
	mrs := m.RunStates()
	if len(ers) != len(mrs) {
		return &Divergence{Round: round, Field: "run-registry",
			Engine: fmt.Sprintf("%d runs", len(ers)), Model: fmt.Sprintf("%d runs", len(mrs))}
	}
	for i, er := range ers {
		if es := engineRunState(er); es != mrs[i] {
			return &Divergence{Round: round, Field: fmt.Sprintf("run-registry[%d]", i),
				Engine: fmt.Sprintf("%+v", es), Model: fmt.Sprintf("%+v", mrs[i])}
		}
	}
	return nil
}

// GatherNaive runs the naive model alone to completion (or maxRounds) and
// returns the rounds taken — the "record a fixture via the model" path of
// the golden-trace suite and a convenient second opinion for tests.
func GatherNaive(positions []grid.Vec, cfg core.Config, maxRounds int) (int, error) {
	m, err := NewModel(positions, cfg)
	if err != nil {
		return 0, err
	}
	maxRounds = sim.RoundBudget(maxRounds, len(positions), 1)
	for round := 0; ; round++ {
		if m.Gathered() {
			return round, nil
		}
		if round >= maxRounds {
			return round, fmt.Errorf("oracle: model not gathered after %d rounds (n=%d)", round, len(positions))
		}
		if _, err := m.StepActivated(nil); err != nil {
			return round, err
		}
	}
}
