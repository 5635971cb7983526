// Package core implements the paper's gathering algorithm for a closed
// chain of robots on a grid: merge operations (paper §3.1, Fig 2–3),
// runner-driven reshapement along quasi lines (§3.2, §4.1, Fig 4–7 and 11),
// run passing (§3.2/4.1, Fig 8 and 14), pipelining with period L = 13
// (§3.3, Fig 9) and the run termination conditions of Table 1. The per-round
// rule executed by every robot is the algorithm of Fig 15.
//
// All decisions are derived from view.Snapshot windows of viewing path
// length V = 11; see DESIGN.md §3 for the reconstruction notes and the few
// interpretation decisions taken where the paper's figures under-determine
// a detail.
//
// Each round executes as a sequence of phase kernels over half-open
// ranges (KernelMergeScan, KernelDecide, KernelStartScan, then the
// internal move/resolve/apply kernels), all on the goroutine that steps.
// DESIGN.md §9 states what each kernel reads and writes.
//
// The package also defines the Strategy contract every consumer of a
// gathering algorithm drives (DESIGN.md §10) and its registry
// (StrategyName, NewStrategy). Two strategies register: Algorithm (the
// paper, the zero-value default) and LinTime, the linear-time
// bounding-box contraction successor (arXiv:1501.04877) — ~diameter/2
// FSYNC rounds at the price of global vision. Both settle illegal edges
// with the one edge-conflict fixpoint (edgeGuard, DESIGN.md §3.6): the
// paper under every activation set, lintime under partial activation
// (its FSYNC clamp cannot break an edge).
package core
