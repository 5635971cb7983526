// Package baseline implements the comparison strategies of the
// reproduction's experiment E12 (DESIGN.md):
//
//   - ManhattanHopper: a reconstruction of the Manhattan-Hopper of
//     Kutylowski & Meyer auf der Heide (TCS 2009, [KM09] in the paper):
//     shortening an open chain between two fixed endpoints to a
//     Manhattan-optimal path in linear time — the result the paper
//     generalises to closed chains of indistinguishable robots.
//   - OpenEndpointGather: the paper's §1 remark made executable —
//     "the gathering of an open chain would be simple in general, as the
//     endpoints are always locally distinguishable and would simply
//     sequentially hop onto their inner neighbors".
//   - Ablations of the paper's own algorithm (merge-only, sequential
//     runs), as configuration wrappers around the main simulator.
//
// E12's global-vision baseline, the strawman quantifying what the purely
// local model gives up (the introduction's motivating comparison), is not
// here: it is the lintime strategy (core.LinTime, arXiv:1501.04877) run
// under FSYNC through the ordinary engine.
//
// Reconstruction note for ManhattanHopper: [KM09]'s strategy pipelines
// "runs" from the base whose carriers iteratively eliminate detours; the
// net effect of a run traversing a detour is the removal of one U-turn.
// This reconstruction applies the U-turn eliminations directly, with
// unbounded detection length, i.e. it idealises the run transport and
// keeps the geometric core. Its round counts are therefore a (tight up to
// constants) proxy for the Hopper's; E12 compares asymptotic shape, not
// constants. A chain without U-turns is coordinate-monotone and hence
// Manhattan-optimal, which gives the termination proof.
package baseline
