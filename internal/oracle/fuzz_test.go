package oracle_test

import (
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/oracle"
	"gridgather/internal/sched"
)

// fuzzMaxSteps caps per-input chain size in the native fuzz targets: the
// mutator gets more coverage per CPU second from many small chains than
// from a few giant ones. The committed corpus and TestCheckLargeChains
// cover the big end; cmd/gatherfuzz covers volume.
const fuzzMaxSteps = 512

// fuzzMaxStepsSched is the tighter cap for non-FSYNC scheduler selectors:
// a rate-1/k scheduler multiplies the lockstep's round budget by k against
// a naive model that costs O(n²) per round, so full-size chains blow the
// per-input fuzz deadline without adding coverage the small ones lack.
const fuzzMaxStepsSched = 192

// FuzzEngineVsOracle decodes arbitrary bytes into a valid closed chain
// (generate.FromBytes), picks a configuration from the ablation space, an
// activation scheduler from the scheduler space, a gathering strategy
// from the strategy byte, and a mid-run checkpoint round from the
// checkpoint byte, and runs the conformance check: engine-vs-model
// lockstep for the paper strategy, the battery-plus-watchdog path for
// strategies without a model mirror. Scheduler selector 0 is FSYNC,
// strategy selector 0 is the paper strategy and checkpoint selector 0
// disables the codec round-trip, so legacy corpus entries keep their
// meaning. The workers byte once chose an engine worker count; it is
// ignored, and stays in the signature so the committed corpus keeps
// decoding. The model knows nothing about checkpoints — any
// checkpoint-codec infidelity (state dropped, distorted or smuggled
// through a mid-run snapshot/restore) surfaces as a lockstep divergence.
// Under FSYNC the input must also satisfy oracle.CheckAllAwake: the same
// Result under random:p=1, which wakes every robot through a drawn set.
// On a divergence the failing chain is shrunk (under the same config,
// scheduler, strategy and checkpoint round) and printed as a
// ready-to-paste seed.
func FuzzEngineVsOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(61))
	for i, name := range generate.Names() {
		if ch, err := generate.Named(name, 16, rng); err == nil {
			f.Add(generate.ToBytes(ch), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
			// One non-FSYNC, mid-run-checkpointed seed per family,
			// alternating the strategy, so the mutator starts with every
			// axis already open.
			f.Add(generate.ToBytes(ch), uint8(i), uint8(1+i%(oracle.NumScheds()-1)), uint8(i%8),
				uint8(i%oracle.NumStrategies()), uint8(1+i%oracle.MaxCheckpointRound))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, cfgSel, schedSel, _, stratSel, ckptSel uint8) {
		opts := oracle.Options{
			Sched:           oracle.SchedFromByte(schedSel),
			Strategy:        oracle.StrategyFromByte(stratSel),
			CheckpointRound: oracle.CheckpointRoundFromByte(ckptSel),
		}
		maxSteps := fuzzMaxSteps
		if opts.Sched.Kind != sched.FSYNC {
			maxSteps = fuzzMaxStepsSched
		}
		if len(data) > maxSteps {
			data = data[:maxSteps]
		}
		ch, err := generate.FromBytes(data)
		if err != nil {
			t.Skip() // only the empty input
		}
		cfg := oracle.ConfigFromByte(cfgSel)
		check := func(c *chain.Chain) error {
			_, err := oracle.CheckWithOptions(cfg, c, opts)
			if err == nil && opts.Sched.Kind == sched.FSYNC {
				err = oracle.CheckAllAwake(cfg, c, opts.Strategy)
			}
			return err
		}
		if err := check(ch); err != nil {
			minimal := oracle.Shrink(ch.Positions(), func(c *chain.Chain) bool {
				return check(c) != nil
			})
			t.Fatalf("conformance failure (cfg %+v, sched %s, strategy %s, ckpt@%d): %v\nshrunk witness:\n%s",
				cfg, opts.Sched, opts.Strategy, opts.CheckpointRound, err, oracle.FormatSeed(minimal))
		}
	})
}

// FuzzGenerateFamilies drives the generator stack with arbitrary
// (family, size, seed) triples: every accepted input must produce a valid
// initial configuration, and small outputs are additionally run through
// the lockstep check so generator structure feeds the conformance search.
func FuzzGenerateFamilies(f *testing.F) {
	for i := range generate.Names() {
		f.Add(uint8(i), uint16(24), int64(7))
	}
	names := generate.Names()
	f.Fuzz(func(t *testing.T, family uint8, size uint16, seed int64) {
		name := names[int(family)%len(names)]
		n := int(size)%fuzzMaxSteps + 4
		ch, err := generate.Named(name, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s/%d rejected valid parameters: %v", name, n, err)
		}
		if err := ch.CheckEdges(); err != nil {
			t.Fatalf("%s/%d: %v", name, n, err)
		}
		if err := ch.CheckNoZeroEdges(); err != nil {
			t.Fatalf("%s/%d: %v", name, n, err)
		}
		if ch.Len()%2 != 0 {
			t.Fatalf("%s/%d: odd chain length %d", name, n, ch.Len())
		}
		if ch.Len() <= 128 {
			if _, err := oracle.Check(core.DefaultConfig(), ch, 0); err != nil {
				t.Fatalf("%s/%d (n=%d): %v\nseed:\n%s", name, n, ch.Len(), err, oracle.FormatSeed(ch.Positions()))
			}
		}
	})
}

// TestInjectedBugShrinksSmall is the end-to-end acceptance self-test of
// the conformance loop: arm a real bug in the naive model (the skipped
// merge resolution pass), let the fuzz-shaped search catch it, then
// shrink the witness. The minimised chain must have at most 16 robots — small enough
// to debug by hand.
func TestInjectedBugShrinksSmall(t *testing.T) {
	cfg := core.DefaultConfig()
	failing := func(c *chain.Chain) bool {
		_, err := oracle.CheckWithOptions(cfg, c, oracle.Options{Fault: oracle.FaultSkipMergeResolution})
		return err != nil
	}
	rng := rand.New(rand.NewSource(62))
	caught := 0
	for trial := 0; trial < 20; trial++ {
		ch, err := generate.RandomClosedWalk(40+2*rng.Intn(60), rng)
		if err != nil {
			t.Fatal(err)
		}
		if !failing(ch) {
			continue
		}
		caught++
		minimal := oracle.Shrink(ch.Positions(), failing)
		if len(minimal) > 16 {
			t.Fatalf("trial %d: shrunk witness still has %d robots:\n%s",
				trial, len(minimal), oracle.FormatSeed(minimal))
		}
		if !failing(chain.MustNew(minimal)) {
			t.Fatalf("trial %d: shrunk witness no longer fails", trial)
		}
	}
	if caught < 5 {
		t.Fatalf("skipped merge resolution caught on only %d/20 chains — the bug detector is too weak", caught)
	}
}
