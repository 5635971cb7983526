// Package view implements the robots' restricted local vision.
//
// In the paper each robot sees only the subchain of its next V = 11 chain
// neighbours in both directions (the "viewing path length"), as relative
// positions, plus the run states those neighbours carry (run-state
// visibility along the chain is what the paper's termination condition
// "it can see the next sequent run in front of it" relies on).
//
// A Snapshot is a window onto the chain centred at one robot, filled in
// place by At (or Over) over ring-indexed arrays: the chain's edges in
// chain order as one-byte codes (grid.EdgeCode, the unit steps between
// neighbours, from which every relative position follows), the handles in
// chain order, and a run mask carrying one bit per run direction for each
// robot (RunsPlus, RunsMinus). A predicate that walks the window opens a
// Ray, which checks its farthest offset once and then yields one edge code
// and run-mask byte per robot with no call per edge; Straight and
// RunsAhead answer the common straight window eight bytes per load
// (Word), behind the same one check. The snapshot
// engineers the locality discipline: any attempt to look past the viewing
// path length panics, so unit tests immediately catch rules that are not
// local.
// Snapshots expose relative positions only; absolute coordinates and robot
// identities are not part of the observable interface used by decision
// rules (the Robot accessor exists solely for the engine's bookkeeping of
// run ownership, which stands in for a robot tracking a neighbour one step
// away — see DESIGN.md §3.5).
package view
