package sim_test

import (
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/sim"
)

// roundsFor gathers a chain built from the given positions and returns the
// round count.
func roundsFor(t *testing.T, ps []grid.Vec) int {
	t.Helper()
	ch, err := chain.New(ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Gather(ch, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rounds
}

// TestSimulationD4Invariance: the robots have no compass, so the whole
// execution must be equivariant under every grid symmetry — in particular
// the number of rounds to gathering is invariant.
func TestSimulationD4Invariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][]grid.Vec{}
	for _, name := range []string{"rectangle", "spiral", "comb", "walk", "polyomino"} {
		ch, err := generate.Named(name, 120, rng)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, ch.Positions())
	}
	for si, base := range shapes {
		want := roundsFor(t, base)
		for _, tr := range grid.D4 {
			mapped := make([]grid.Vec, len(base))
			for i, p := range base {
				mapped[i] = tr.Apply(p)
			}
			if got := roundsFor(t, mapped); got != want {
				t.Errorf("shape %d transform %+v: %d rounds, want %d", si, tr, got, want)
			}
		}
	}
}

// TestSimulationReversalInvariance: reversing robot order leaves the
// execution length unchanged on four families at 140 robots. It checks
// round counts only, and reversal does change them elsewhere: a merge's
// survivor is picked by robot ID, so polyomino(1024, seed 3) gathers in
// 929 rounds as generated and 812 reversed (ROADMAP item 10).
func TestSimulationReversalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, name := range []string{"rectangle", "spiral", "walk", "serpentine"} {
		ch, err := generate.Named(name, 140, rng)
		if err != nil {
			t.Fatal(err)
		}
		base := ch.Positions()
		rev := make([]grid.Vec, len(base))
		for i, p := range base {
			rev[(len(base)-i)%len(base)] = p
		}
		want := roundsFor(t, base)
		if got := roundsFor(t, rev); got != want {
			t.Errorf("%s reversed: %d rounds, want %d", name, got, want)
		}
	}
}

// TestSimulationRotationInvariance: robots are anonymous, so the choice of
// which robot is "index 0" must not matter.
func TestSimulationRotationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, name := range []string{"rectangle", "comb", "polyomino"} {
		ch, err := generate.Named(name, 120, rng)
		if err != nil {
			t.Fatal(err)
		}
		base := ch.Positions()
		want := roundsFor(t, base)
		for _, shift := range []int{1, 7, len(base) / 2} {
			rot := make([]grid.Vec, len(base))
			for i, p := range base {
				rot[(i+shift)%len(base)] = p
			}
			if got := roundsFor(t, rot); got != want {
				t.Errorf("%s shifted by %d: %d rounds, want %d", name, shift, got, want)
			}
		}
	}
}

// TestSimulationTranslationInvariance: absolute coordinates are invisible
// to the robots.
func TestSimulationTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ch, err := generate.Named("spiral", 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	base := ch.Positions()
	want := roundsFor(t, base)
	for _, off := range []grid.Vec{grid.V(1000, -500), grid.V(-3, 7)} {
		moved := make([]grid.Vec, len(base))
		for i, p := range base {
			moved[i] = p.Add(off)
		}
		if got := roundsFor(t, moved); got != want {
			t.Errorf("translated by %v: %d rounds, want %d", off, got, want)
		}
	}
}
