// Package grid provides the integer-lattice geometry underlying the
// closed-chain gathering simulator: grid points, axis directions, the
// dihedral symmetry group D4, bounding boxes, and the one-byte chain-edge
// code (EdgeCode) the look phase reads the chain as — zero and the four
// axis units, plus one sentinel for any other displacement, with the
// unit, parallel, perpendicular and negation tests as bit operations.
//
// The robots of the paper live on Z^2 and have no common compass, so every
// rule of the algorithm must be invariant under the eight symmetries of the
// grid. This package supplies those transforms so that higher layers can
// both implement rules in a canonical frame and test their equivariance.
package grid
