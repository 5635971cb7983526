// Package benchio records the repository's machine-readable performance
// trajectory: every perf-relevant PR regenerates a small JSON report of a
// pinned benchmark subset (BENCH_*.json at the repo root), so speedups and
// regressions accumulate as reviewable data instead of claims in commit
// messages.
//
// Each package the subset measures runs its entries as sub-benchmarks of
// one BenchmarkTrajectory in its tests. ParseGoTest turns the output of
// `go test -run '^$' -bench '^BenchmarkTrajectory$' -benchmem ./...` into
// a Report; `gatherbench -bench-out` writes it and `-bench-against` gates
// it with Compare.
//
// The encoding is deterministic (entries sorted by name, fixed field
// order), which keeps committed reports diffable. Wall-clock numbers
// (ns/op, tasks/s) document the machine they were measured on and are
// never compared across machines; allocation counts and bytes are a pure
// function of the workload (up to runtime bookkeeping, which Compare's
// slack absorbs) and are what Compare checks in CI.
package benchio
