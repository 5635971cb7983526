// Package chain implements the closed-chain substrate of the paper: a cyclic
// sequence of robots on the integer grid in which consecutive robots occupy
// the same or axis-adjacent grid points.
//
// The package owns the data-structure level concerns — ring storage, edge
// validity, merge splicing (the paper's progress operation), straight-run
// decomposition and serialisation — while the algorithm itself lives in
// internal/core and the synchronous driver in internal/sim.
//
// Representation (DESIGN.md §6): robots are dense integer Handles into flat
// struct-of-arrays storage (position, ring links, liveness). The ring is an
// index-linked cyclic list, so a merge splice is O(1) — no slice shifting,
// no reindexing of later robots. Cyclic index access (At/Pos/Edge) goes
// through a ring-order cache that is invalidated by splices and rebuilt
// lazily in one O(n) walk, at most once per round in the simulator. The
// look phase reads the chain as one byte per edge in ring order
// (EdgeCodes, grid.EdgeCode): that cache is allocated on its first use
// only, rebuilt with the order, kept current by SetPos for the two edges
// at the moved robot, and never copied by Clone. The bounding box is
// maintained incrementally on every move and splice, so Gathered() is
// O(1) in the steady state.
package chain
