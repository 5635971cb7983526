// Package sim drives a core.Strategy round by round (Options.Strategy
// selects which; the zero value is the paper's algorithm): it owns the
// watchdog that operationalises Theorem 1 (gathering must finish in O(n)
// rounds; RoundBudget), the per-round safety battery (Safety), aggregate
// metrics, and observer hooks used by tracing and by the experiment
// harness. The oracle's round loop runs the same battery and budget.
//
// Concurrency contract: an Engine (and the chain plus core.Strategy it
// owns) is confined to one goroutine, and the package keeps no mutable
// package-level state — so independent engines may run concurrently
// without synchronisation. The experiment harness relies on this: its
// worker pool (internal/parallel) runs one engine per task. Within one
// engine every round runs on the goroutine that steps (DESIGN.md §9).
package sim
