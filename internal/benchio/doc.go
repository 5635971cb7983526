// Package benchio records the repository's machine-readable performance
// trajectory: every perf-relevant PR regenerates a small JSON report of a
// pinned benchmark subset (BENCH_*.json at the repo root, written by
// `gatherbench -bench-out`), so speedups and regressions accumulate as
// reviewable data instead of claims in commit messages.
//
// The encoding is deterministic (entries sorted by name, fixed field
// order), which keeps committed reports diffable. Wall-clock numbers
// (ns/op, tasks/s) document the machine they were measured on and are
// never compared across machines; allocation counts and bytes are a pure
// function of the workload (up to runtime bookkeeping, which Compare's
// slack absorbs) and are what Compare checks in CI.
package benchio
