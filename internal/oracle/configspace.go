package oracle

import (
	"gridgather/internal/core"
	"gridgather/internal/sched"
)

// The fuzzing configuration space: the L and V neighbourhood of the
// paper's parameters. One selector byte indexes a point, so fuzz inputs
// and stress-harness task indices pick configurations the same way.
//
// Deliberately excluded, because the campaign asserts liveness (gathering
// within the Theorem 1 cap) and these choices break it by design rather
// than by bug:
//
//   - Merge detection lengths below the V-1 maximum. E11 documents k = 2
//     live-locking; the stress harness sharpened that to: ANY MaxMergeLen
//     below V-1 live-locks on square rings whose endgame side exceeds it
//     (e.g. V=11, ML=8 on a 21x21 ring parks 36 robots in a 9x9 square
//     forever, engine and model in perfect agreement). See EXPERIMENTS.md
//     §Stress.
//   - The run-disabling ablations: merge-only gathering livelocks on
//     mergeless shapes, so arbitrary fuzz chains would produce false
//     liveness failures. Those ablations are covered on curated workloads
//     in the test suite instead.
//
// Every included configuration empirically gathers all families well
// inside the Theorem 1 cap (TestConfigSpaceLiveness), so a liveness
// failure in the fuzz campaign is a real finding.
var (
	fuzzViews   = []int{7, 9, 11, 13, 15}
	fuzzPeriods = []int{5, 9, 13, 17, 26}
)

// NumConfigs is the size of the fuzzing configuration space.
func NumConfigs() int { return len(fuzzViews) * len(fuzzPeriods) }

// ConfigFromByte maps a selector byte onto the fuzzing configuration
// space (wrapping modulo NumConfigs): viewing path length V around the
// paper's 11, run period L around the paper's 13, merge detection length
// at its V-1 maximum (see above for why smaller values are excluded).
func ConfigFromByte(sel uint8) core.Config {
	s := int(sel) % NumConfigs()
	v := fuzzViews[s%len(fuzzViews)]
	s /= len(fuzzViews)
	l := fuzzPeriods[s%len(fuzzPeriods)]
	return core.Config{ViewingPathLength: v, RunPeriod: l, MaxMergeLen: v - 1}
}

// The fuzzing scheduler space: FSYNC plus a spread over the three relaxed
// activation models (internal/sched). Rates stay at 1/5 or above so the
// lockstep's scaled watchdog keeps campaign wall-clock bounded; seeds are
// fixed because scenario-level randomness already comes from the chain and
// the selector (the same scheduler stream on a different chain is a
// different execution).
var fuzzScheds = []sched.Config{
	{Kind: sched.FSYNC},
	{Kind: sched.RoundRobin, K: 2},
	{Kind: sched.RoundRobin, K: 5},
	{Kind: sched.BoundedAdversary, K: 1, P: 0.5, Seed: 11},
	{Kind: sched.BoundedAdversary, K: 4, P: 0.5, Seed: 12},
	{Kind: sched.Random, P: 0.9, Seed: 13},
	{Kind: sched.Random, P: 0.5, Seed: 14},
}

// NumScheds is the size of the fuzzing scheduler space.
func NumScheds() int { return len(fuzzScheds) }

// SchedFromByte maps a selector byte onto the fuzzing scheduler space
// (wrapping modulo NumScheds). Selector 0 is FSYNC, so legacy corpus
// entries and zero-extended inputs keep their original semantics.
func SchedFromByte(sel uint8) sched.Config { return fuzzScheds[int(sel)%len(fuzzScheds)] }

// The fuzzing strategy space: every registered strategy. The paper
// strategy runs the full engine-vs-model lockstep; strategies without a
// model mirror run the same loop with the battery and the watchdog only.
var fuzzStrategies = []core.StrategyName{core.StrategyPaper, core.StrategyLinTime}

// NumStrategies is the size of the fuzzing strategy space.
func NumStrategies() int { return len(fuzzStrategies) }

// StrategyFromByte maps a selector byte onto the fuzzing strategy space
// (wrapping modulo NumStrategies). Selector 0 is the paper strategy, so
// legacy corpus entries and zero-extended inputs keep their original
// semantics.
func StrategyFromByte(sel uint8) core.StrategyName {
	return fuzzStrategies[int(sel)%len(fuzzStrategies)]
}

// MaxCheckpointRound bounds the checkpoint axis of the conformance fuzz:
// mid-run codec round-trips are probed at rounds 1..MaxCheckpointRound,
// deep enough that runs, merges and scheduler state all exist on the small
// fuzz chains, and early enough that the axis costs one extra rebuild per
// input rather than a second full run.
const MaxCheckpointRound = 48

// CheckpointRoundFromByte maps a selector byte onto the checkpoint axis
// (Options.CheckpointRound): 0 disables the mid-run codec round-trip, so
// legacy corpus entries and zero-extended inputs keep their original
// semantics; any other value selects a round in [1, MaxCheckpointRound].
func CheckpointRoundFromByte(sel uint8) int {
	if sel == 0 {
		return 0
	}
	return 1 + int(sel)%MaxCheckpointRound
}
