// Package oracle is the model-based conformance layer of the reproduction:
// a deliberately naive re-implementation of the FSYNC round semantics that
// the fast engine (internal/core on the internal/chain SoA substrate) is
// checked against in lockstep, plus a declarative invariant battery (the
// engine's safety list, sim.Safety, and the paper's two progress checks),
// a failing-chain shrinker, and the native fuzz targets built on them.
//
// The model favours correctness over speed everywhere the engine favours
// speed: robots live in a pointer-based ring (no handle arrays, no
// ring-order cache), per-robot state lives in maps rebuilt by full rescans
// every round, merge resolution restarts from the head after every splice,
// and nothing is ever reused across rounds. It is also the repo's first
// alternate backend: anything that steps a configuration and reports
// core.RoundReport values can be compared by Check.
//
// What is shared and what is independent: the model re-implements the
// engine-level round semantics — phase ordering, FSYNC freezing, merge
// planning with spike priority, hop collection and conflict suppression,
// merge resolution, run lifecycle and registry bookkeeping — but evaluates
// the paper's per-robot geometric predicates (core.DetectStart,
// core.EndpointAhead, view.Snapshot) through the same pure functions the
// engine uses, over a view materialised from the model's own ring
// (view.Over): edge codes the model computes from its own positions,
// handles, and a run mask it builds by scanning its own run list, all
// rebuilt each round, so the engine's incrementally maintained edge codes
// and its end-of-round mask rebuild are checked, not shared. Those predicates are the reconstruction
// of the paper's figures; transliterating them a second time would add no
// checking power and plenty of false divergences, while every
// optimisation-bearing layer (scratch reuse, seeded resolution, SoA
// splicing, the edge codes and the run mask) is covered by a truly
// independent implementation.
//
// CheckWithOptions runs one round loop for every strategy (DESIGN.md
// §10). The model speaks the paper's round semantics only, so it steps
// beside the paper strategy and is nil for the others (lintime), which
// the same loop checks with the invariant battery minus the paper-only
// invariants, under the same watchdog semantics — an FSYNC expiry is a
// liveness divergence, non-FSYNC budget exhaustion a clean DNF. The
// self-test defects (Fault) are armed in the model, never in the engine.
//
// CheckAllAwake checks a law across activation models instead of two
// backends: FSYNC is the set with every robot awake, so sim.Gather under
// FSYNC and under random:p=1 must return identical Results (DESIGN.md §8).
package oracle
