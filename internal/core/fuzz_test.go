package core

import (
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// randomWalkChain builds a random closed walk directly (the generate
// package depends on core tests staying independent).
func randomWalkChain(t *testing.T, pairs int, rng *rand.Rand) *chain.Chain {
	t.Helper()
	steps := make([]grid.Vec, 0, 2*pairs)
	h := 1 + rng.Intn(pairs)
	for i := 0; i < h && i < pairs; i++ {
		steps = append(steps, grid.East, grid.West)
	}
	for i := h; i < pairs; i++ {
		steps = append(steps, grid.North, grid.South)
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	ps := make([]grid.Vec, len(steps))
	p := grid.Zero
	for i, s := range steps {
		ps[i] = p
		p = p.Add(s)
	}
	return mustChain(t, ps...)
}

// TestFuzzRoundReportConsistency steps random chains and cross-checks every
// report against the observable chain state.
func TestFuzzRoundReportConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		c := randomWalkChain(t, 6+rng.Intn(40), rng)
		alg, err := New(c, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		prevLen := c.Len()
		for round := 0; round < 400; round++ {
			rep, err := alg.StepActivated(nil)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if rep.Gathered {
				break
			}
			if rep.ChainLen != c.Len() {
				t.Fatalf("trial %d: report len %d != chain len %d", trial, rep.ChainLen, c.Len())
			}
			if prevLen-rep.ChainLen != rep.Merges() {
				t.Fatalf("trial %d: shrink %d != merges %d", trial, prevLen-rep.ChainLen, rep.Merges())
			}
			if rep.ActiveRuns != len(alg.Runs()) {
				t.Fatalf("trial %d: active runs %d != registry %d", trial, rep.ActiveRuns, len(alg.Runs()))
			}
			for _, run := range alg.Runs() {
				if !c.Contains(run.Host) {
					t.Fatalf("trial %d: run %d hosted off-chain", trial, run.ID)
				}
				if run.Dir != 1 && run.Dir != -1 {
					t.Fatalf("trial %d: run %d direction %d", trial, run.ID, run.Dir)
				}
			}
			if err := c.CheckEdges(); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if err := c.CheckNoZeroEdges(); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			prevLen = rep.ChainLen
		}
		if !alg.Gathered() {
			t.Fatalf("trial %d: random walk did not gather in 400 rounds", trial)
		}
	}
}

// TestFuzzMergePlanSafety: on random chains, executing the merge plan alone
// (hops applied simultaneously) never breaks the chain, and a white of an
// executing spike only moves when it is itself the black of another spike
// (the suppression rule bans straight-pattern hops on spike whites).
func TestFuzzMergePlanSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 200; trial++ {
		c := randomWalkChain(t, 4+rng.Intn(30), rng)
		plan := mustPlan(t, c, DefaultMaxMergeLen)
		spikeBlacks := map[chain.Handle]bool{}
		for _, pat := range plan.Executing {
			if pat.Len == 1 {
				spikeBlacks[c.At(pat.FirstBlack)] = true
			}
		}
		for _, pat := range plan.Executing {
			if pat.Len != 1 {
				continue
			}
			for _, w := range []int{pat.WhiteBefore(), pat.WhiteAfter()} {
				r := c.At(w)
				if h, ok := plan.Hop(r); ok && !h.IsZero() && !spikeBlacks[r] {
					t.Fatalf("trial %d: spike white hops %v via a straight pattern", trial, h)
				}
			}
		}
		for _, r := range plan.HopHandles() {
			if h, ok := plan.Hop(r); ok {
				c.MoveBy(r, h)
			}
		}
		if err := c.CheckEdges(); err != nil {
			t.Fatalf("trial %d: merge plan broke the chain: %v", trial, err)
		}
	}
}

// TestInjectRunRegistry checks the test-hook keeps the registry coherent.
func TestInjectRunRegistry(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	alg, err := New(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := alg.InjectRun(0, +1)
	if len(alg.Runs()) != 1 || alg.Runs()[0] != run {
		t.Fatal("run registry wrong after injection")
	}
	if alg.runMask[0] != view.RunsPlus {
		t.Fatalf("injected run not in the run mask: %02b", alg.runMask[0])
	}
	if alg.runMask[1] != 0 {
		t.Fatal("phantom run visible")
	}
	// A second run on the same robot and one elsewhere: the mask is
	// rebuilt, not appended to, and the view reads it relative to the
	// observer.
	alg.InjectRun(0, -1)
	alg.InjectRun(5, -1)
	if alg.runMask[0] != view.RunsPlus|view.RunsMinus || alg.runMask[5] != view.RunsMinus {
		t.Fatalf("mask after three injections: [0]=%02b [5]=%02b", alg.runMask[0], alg.runMask[5])
	}
	var s view.Snapshot
	view.At(&s, c, 3, DefaultViewingPathLength, alg.runMask)
	if !s.HasRunTowards(-3) || !s.HasRunAway(-3) || !s.HasRunTowards(2) || s.HasRunAway(2) {
		t.Fatal("snapshot misreads the injected runs")
	}
	checkRunMask(t, alg, "injected")
}
