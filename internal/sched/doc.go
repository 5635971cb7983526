// Package sched decides which robots are activated in which round: the
// activation-model axis of the simulator. The paper proves its O(n) bound
// for fully synchronous (FSYNC) rounds only; this package makes the
// activation model pluggable so the platform can ask how the strategy
// degrades under relaxed models — the robustness questions raised by the
// follow-up work on Euclidean closed chains (arXiv:2010.04424) and
// asymptotically optimal grid gathering (arXiv:1602.03303).
//
// A Scheduler fills a per-round activation set: activated robots run the
// full look–compute–move cycle, sleeping robots keep their position and
// their run state frozen (their stale positions remain visible to active
// neighbours). Four models are built in:
//
//   - FSYNC — every robot, every round (the paper's model; the engine
//     passes no set, which strategies step exactly like an all-true one);
//   - RoundRobin — deterministic SSYNC: a contiguous window of
//     ceil(n/K) chain indices, sliding one index per round (contiguity
//     and the unit stride are both livelock-critical; see the Kind
//     docs and DESIGN.md §8);
//   - BoundedAdversary — seeded random sleeping, capped at K consecutive
//     rounds per robot (bounded asynchrony);
//   - Random — seeded Bernoulli(P) activation with no fairness guarantee.
//
// Configurations are plain comparable Config values (zero value = FSYNC)
// with a flag syntax shared by every CLI (Parse/Config.String). The
// determinism contract — equal Configs produce equal activation sequences
// — is what keeps non-FSYNC experiment tables byte-identical across
// worker counts and lets the conformance oracle step the fast engine and
// the naive model on one shared activation set. See DESIGN.md §8.
package sched
