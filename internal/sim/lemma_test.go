package sim_test

import (
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/sim"
)

// squareRing builds an s x s square ring chain.
func squareRing(t *testing.T, s int) *chain.Chain {
	t.Helper()
	var ps []grid.Vec
	for x := 0; x < s; x++ {
		ps = append(ps, grid.V(x, 0))
	}
	for y := 0; y < s; y++ {
		ps = append(ps, grid.V(s, y))
	}
	for x := s; x > 0; x-- {
		ps = append(ps, grid.V(x, s))
	}
	for y := s; y > 0; y-- {
		ps = append(ps, grid.V(0, y))
	}
	c, err := chain.New(ps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLemma2OnSquare: on a large square ring, the first generation of run
// pairs (one good pair per side, started on the mergeless chain) are all
// progress pairs, and every one of them enables a merge (Lemma 2.a) with
// no two pairs crediting the same merge (Lemma 2.b).
func TestLemma2OnSquare(t *testing.T) {
	for _, s := range []int{16, 24, 40} {
		res, err := sim.Gather(squareRing(t, s), sim.Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("square %d: %v", s, err)
		}
		p := res.Pairs
		if p.GoodPairs == 0 || p.ProgressPairs == 0 {
			t.Fatalf("square %d: no good/progress pairs recorded: %+v", s, p)
		}
		if p.ProgressMerged+p.ProgressUnresolved != p.ProgressPairs {
			t.Errorf("square %d: pair accounting inconsistent: %+v", s, p)
		}
		// Lemma 2.a: every resolved progress pair enabled a merge. The
		// unresolved ones are those cut short by gathering itself.
		if p.ProgressMerged == 0 {
			t.Errorf("square %d: no progress pair enabled a merge: %+v", s, p)
		}
		// Lemma 2.b: distinct pairs, distinct merges.
		if p.CreditConflicts != 0 {
			t.Errorf("square %d: %d credit conflicts (Lemma 2.b violated)", s, p.CreditConflicts)
		}
		if p.Lemma1Violations != 0 {
			t.Errorf("square %d: %d Lemma 1 window violations", s, p.Lemma1Violations)
		}
	}
}

// TestLemma1AcrossShapes: across the structured workload families, every
// 13-round window on a large-enough chain must contain a merge or a new
// good pair.
func TestLemma1AcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, name := range generate.Names() {
		ch, err := generate.Named(name, 160, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sim.Gather(ch, sim.Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Pairs.Lemma1Violations != 0 {
			t.Errorf("%s: %d/%d Lemma 1 windows violated",
				name, res.Pairs.Lemma1Violations, res.Pairs.Lemma1Windows)
		}
	}
}

// TestLemma1RandomWalks: the Lemma 1 audit over randomized tangled chains.
func TestLemma1RandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 25; trial++ {
		n := 20 + 2*rng.Intn(120)
		ch, err := generate.RandomClosedWalk(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Gather(ch, sim.Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("walk n=%d: %v", n, err)
		}
		if res.Pairs.Lemma1Violations != 0 {
			t.Errorf("walk n=%d: %d Lemma 1 violations", n, res.Pairs.Lemma1Violations)
		}
	}
}

// TestLemma3RunInvariants checks the run invariants of Lemma 3 on a large
// square: every run advances one robot per round (1), no sequent run is
// visible in front beyond the round it is detected (3), and at most two
// runs occupy a robot (storage bound).
func TestLemma3RunInvariants(t *testing.T) {
	const s = 40
	cfg := core.DefaultConfig()
	alg, err := core.New(squareRing(t, s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prevViolations := map[[2]int]bool{} // (rear, front) pairs seen last round
	for round := 0; round < 300; round++ {
		rep, err := alg.StepActivated(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Gathered {
			return
		}
		c := alg.Chain()
		occupancy := map[int]int{}
		var runIdx []struct{ idx, dir, id int }
		for _, run := range alg.Runs() {
			idx := c.IndexOf(run.Host)
			if idx < 0 {
				t.Fatalf("round %d: run on removed robot", round)
			}
			occupancy[idx]++
			if occupancy[idx] > 2 {
				t.Fatalf("round %d: more than two runs on one robot", round)
			}
			runIdx = append(runIdx, struct{ idx, dir, id int }{idx, run.Dir, run.ID})
		}
		// Lemma 3.3 (operationalised): a sequent run becoming visible in
		// front terminates the rear run the following round (condition 1
		// is checked at the start of each round). A merge elsewhere may
		// create such visibility transiently, so only a violation that
		// persists across two consecutive rounds is a bug.
		n := c.Len()
		violations := map[[2]int]bool{}
		for _, a := range runIdx {
			for _, b := range runIdx {
				if a.id == b.id || a.dir != b.dir {
					continue
				}
				// Distance from a to b in a's moving direction.
				d := ((b.idx-a.idx)*a.dir%n + n) % n
				if d >= 1 && d < cfg.ViewingPathLength {
					key := [2]int{a.id, b.id}
					violations[key] = true
					if prevViolations[key] {
						t.Fatalf("round %d: sequent runs %d and %d within view for two rounds (distance %d)",
							round, a.id, b.id, d)
					}
				}
			}
		}
		prevViolations = violations
	}
}
