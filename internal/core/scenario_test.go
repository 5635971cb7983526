package core

import (
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// newAlg builds an algorithm over the given positions with run starts
// disabled, for scenarios that inject runs by hand.
func newAlg(t *testing.T, manualRuns bool, ps ...grid.Vec) *Algorithm {
	t.Helper()
	c, err := chain.New(ps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DisableRunStarts = manualRuns
	alg, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

func stepOK(t *testing.T, alg *Algorithm) RoundReport {
	t.Helper()
	rep, err := alg.StepActivated(nil)
	if err != nil {
		t.Fatalf("round %d: %v", alg.Round(), err)
	}
	if err := alg.Chain().CheckEdges(); err != nil {
		t.Fatalf("round %d: %v", alg.Round(), err)
	}
	return rep
}

// InjectRun places a run on the robot at chain index idx moving in
// direction dir (+1/-1), for tests that reproduce the paper's figures
// with hand-placed runs; the paper's algorithm only creates runs through
// the Fig 5 start patterns. The run acts from the next Step call on.
func (a *Algorithm) InjectRun(idx, dir int) *Run {
	host := a.ch.At(idx)
	run := &Run{
		ID:         a.nextRun,
		Host:       host,
		Dir:        dir,
		StartRound: a.round,
		Kind:       StartStairway,
		OpOrigin:   chain.None,
		OpTarget:   chain.None,
		PassTarget: chain.None,
	}
	a.nextRun++
	a.runs = append(a.runs, run)
	a.indexRuns()
	return run
}

// topRowLen counts robots on the given y level.
func topRowLen(c *chain.Chain, y int) int {
	n := 0
	for _, h := range c.Handles() {
		if c.PosOf(h).Y == y {
			n++
		}
	}
	return n
}

// TestFig7aGoodPair reproduces Fig 7.a: two runs at the endpoints of a
// straight segment whose outer neighbours lie on the same side. Each round
// both runners hop diagonally, the segment shrinks by two, and once it is
// short enough the merge fires; both runs terminate as merge participants.
func TestFig7aGoodPair(t *testing.T) {
	const s = 16
	alg := newAlg(t, true, squareRing(s)...)
	c := alg.Chain()
	// Top side runs from index 2s (corner (s,s)) to 3s (corner (0,s)).
	left := alg.InjectRun(3*s, -1)  // at (0,s), moving east along the top
	right := alg.InjectRun(2*s, +1) // at (s,s), moving west along the top
	if c.PosOf(left.Host) != grid.V(0, s) || c.PosOf(right.Host) != grid.V(s, s) {
		t.Fatalf("corner lookup wrong: %v %v", c.PosOf(left.Host), c.PosOf(right.Host))
	}

	prevTop := topRowLen(c, s)
	merged := false
	for round := 0; round < 12 && !merged; round++ {
		rep := stepOK(t, alg)
		if rep.Merges() > 0 {
			merged = true
			// Both runs must have terminated as merge participants.
			reasons := map[int]TerminateReason{}
			for _, e := range rep.Ends {
				reasons[e.RunID] = e.Reason
			}
			if reasons[left.ID] != TermMerge || reasons[right.ID] != TermMerge {
				t.Errorf("good pair must end in the merge, got %v", rep.Ends)
			}
			break
		}
		if rep.RunnerHops != 2 {
			t.Errorf("round %d: runner hops = %d, want 2 (both runners reshape)", round, rep.RunnerHops)
		}
		top := topRowLen(c, s)
		if top != prevTop-2 {
			t.Errorf("round %d: top row %d -> %d, want shrink by 2", round, prevTop, top)
		}
		prevTop = top
	}
	if !merged {
		t.Fatal("good pair never enabled a merge")
	}
}

// TestFig7aReshapeGeometry pins the exact hop of operation (a) (Fig 6):
// the runner at a corner hops forward towards its trailing side and the
// run advances one robot.
func TestFig7aReshapeGeometry(t *testing.T) {
	const s = 16
	alg := newAlg(t, true, squareRing(s)...)
	c := alg.Chain()
	run := alg.InjectRun(2*s, +1) // corner (s,s), trailing neighbour below
	host0 := run.Host
	next0 := c.At(2*s + 1)
	stepOK(t, alg)
	// The old host hopped diagonally: forward (west) + trailing (south).
	if c.PosOf(host0) != grid.V(s-1, s-1) {
		t.Errorf("runner hop landed at %v, want %v", c.PosOf(host0), grid.V(s-1, s-1))
	}
	// The run moved to the next robot in moving direction (Lemma 3.1).
	if run.Host != next0 {
		t.Errorf("run did not advance to the next robot")
	}
	if run.Mode != ModeNormal {
		t.Errorf("run mode = %v, want normal", run.Mode)
	}
}

// TestFig8RunPassing: two runs moving towards each other that do not
// enable a merge pass each other without reshaping. Each run afterwards
// either resumes normal operation at its target corner or exits through a
// legitimate Table 1 condition (the checks run every round, including
// during passing).
func TestFig8RunPassing(t *testing.T) {
	const s = 24
	alg := newAlg(t, true, squareRing(s)...)
	// A (at the top-right corner) heads west; B sits mid-top heading
	// east. Their reshape sides differ (B is mid-segment), so no merge
	// pattern covers them and they must pass.
	a := alg.InjectRun(2*s, +1)
	b := alg.InjectRun(2*s+9, -1)

	sawPassing := false
	crossed := false
	resumed := false
	okExits := map[TerminateReason]bool{TermEndpoint: true, TermSequentRun: true}
	for round := 0; round < 30; round++ {
		rep := stepOK(t, alg)
		if a.Mode == ModePassing || b.Mode == ModePassing {
			sawPassing = true
		}
		if a.Mode == ModeNormal && sawPassing {
			resumed = true
		}
		for _, e := range rep.Ends {
			if !okExits[e.Reason] {
				t.Fatalf("run %d ended with %v; passing must not get stuck or merge here", e.RunID, e.Reason)
			}
		}
		// Crossing: a, which moves in +1 direction, ends up at a larger
		// index than b (while both are still on the chain).
		ia, ib := alg.Chain().IndexOf(a.Host), alg.Chain().IndexOf(b.Host)
		if ia >= 0 && ib >= 0 && ia > ib {
			crossed = true
		}
		if rep.ActiveRuns == 0 {
			break
		}
	}
	if !sawPassing {
		t.Fatal("runs never entered passing mode")
	}
	if !crossed {
		t.Fatal("runs never crossed")
	}
	if !resumed {
		t.Fatal("no run resumed normal operation after passing")
	}
}

// TestFig8PassingTargets pins the target rule: in the plain case each run
// travels to the other's position at trigger time (Fig 8).
func TestFig8PassingTargets(t *testing.T) {
	const s = 24
	alg := newAlg(t, true, squareRing(s)...)
	a := alg.InjectRun(2*s, +1)
	b := alg.InjectRun(2*s+9, -1)
	var aHost, bHost chain.Handle
	for round := 0; round < 20; round++ {
		// Record hosts before the trigger round: distance 9 shrinks by 2
		// per round (B does not hop, A hops but both advance), reaching
		// <= 3 eventually.
		aHost, bHost = a.Host, b.Host
		stepOK(t, alg)
		if a.Mode == ModePassing {
			if a.PassTarget != bHost {
				t.Errorf("a's passing target = robot %v, want b's host at trigger %v",
					a.PassTarget, bHost)
			}
			if b.Mode == ModePassing && b.PassTarget != aHost {
				t.Errorf("b's passing target = robot %v, want a's host at trigger %v",
					b.PassTarget, aHost)
			}
			return
		}
	}
	t.Fatal("passing never triggered")
}

// TestFig14PassingInterruptsTraverse: when the partner is mid-operation
// (b)/(c), the passing target is the corner where that operation started,
// while the interrupted run keeps its own operation target.
func TestFig14PassingInterruptsTraverse(t *testing.T) {
	const s = 24
	alg := newAlg(t, true, squareRing(s)...)
	c := alg.Chain()
	a := alg.InjectRun(2*s, +1)
	b := alg.InjectRun(2*s+7, -1)
	// Force b into a traverse operation with explicit origin and target,
	// as if it had just started operation (b) at its current corner.
	b.Mode = ModeTraverse
	b.TraverseLeft = 3
	b.OpOrigin = b.Host
	b.OpTarget = c.At(2*s + 4) // three robots ahead in b's direction
	bOrigin, bTarget := b.OpOrigin, b.OpTarget

	for round := 0; round < 10; round++ {
		stepOK(t, alg)
		if a.Mode == ModePassing {
			if a.PassTarget != bOrigin {
				t.Errorf("a must target b's operation origin %d, got %v", bOrigin, a.PassTarget)
			}
			if b.Mode == ModePassing && b.PassTarget != bTarget {
				t.Errorf("b must keep its operation target %d, got %v", bTarget, b.PassTarget)
			}
			return
		}
		if b.Mode == ModePassing {
			if b.PassTarget != bTarget {
				t.Errorf("b must keep its operation target %d, got %v", bTarget, b.PassTarget)
			}
			return
		}
	}
	t.Fatal("passing never triggered")
}

// TestTable1SequentRun: a run seeing a same-direction run in front of it
// terminates (condition 1) — the pipelining spacing mechanism.
func TestTable1SequentRun(t *testing.T) {
	const s = 24
	alg := newAlg(t, true, squareRing(s)...)
	front := alg.InjectRun(2*s+6, +1)
	back := alg.InjectRun(2*s, +1)
	rep := stepOK(t, alg)
	var backEnd *EndEvent
	for i := range rep.Ends {
		if rep.Ends[i].RunID == back.ID {
			backEnd = &rep.Ends[i]
		}
		if rep.Ends[i].RunID == front.ID {
			t.Error("the front run must survive")
		}
	}
	if backEnd == nil || backEnd.Reason != TermSequentRun {
		t.Fatalf("back run must terminate via condition 1, got %+v", rep.Ends)
	}
}

// lRing returns the boundary of an L-shaped ring whose arms are thicker
// than the merge detection length: a Mergeless Chain with one reflex
// corner, where quasi lines end without enabling a merge.
func lRing() []grid.Vec {
	var ps []grid.Vec
	const thick, arm = 12, 8
	outer := thick + arm // 20
	for x := 0; x < outer; x++ {
		ps = append(ps, grid.V(x, 0))
	}
	for y := 0; y < thick; y++ {
		ps = append(ps, grid.V(outer, y))
	}
	for x := outer; x > thick; x-- {
		ps = append(ps, grid.V(x, thick))
	}
	for y := thick; y < outer; y++ {
		ps = append(ps, grid.V(thick, y))
	}
	for x := thick; x > 0; x-- {
		ps = append(ps, grid.V(x, outer))
	}
	for y := outer; y > 0; y-- {
		ps = append(ps, grid.V(0, y))
	}
	return ps
}

// TestTable1Endpoint: a run whose quasi line ends at a reflex corner (the
// structure bends away from its reshape side, so no merge can form there)
// terminates via condition 2 when the endpoint becomes visible.
func TestTable1Endpoint(t *testing.T) {
	alg := newAlg(t, true, lRing()...)
	c := alg.Chain()
	// Locate the convex corner (20,12): the start of the inner horizontal
	// wall; the run travels west towards the reflex corner (12,12).
	idx := -1
	for i := 0; i < c.Len(); i++ {
		if c.Pos(i) == grid.V(20, 12) {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("corner not found")
	}
	run := alg.InjectRun(idx, +1)
	for round := 0; round < 20; round++ {
		rep := stepOK(t, alg)
		for _, e := range rep.Ends {
			if e.RunID == run.ID {
				if e.Reason != TermEndpoint {
					t.Fatalf("run ended with %v, want endpoint", e.Reason)
				}
				return
			}
		}
	}
	t.Fatal("run never terminated")
}

// TestTable1TargetRemoved: conditions 4 and 5 — a passing or traverse run
// whose target corner leaves the chain terminates.
func TestTable1TargetRemoved(t *testing.T) {
	const s = 24
	// A handle outside the chain's handle space simulates a target robot
	// that has been merged away (Contains reports false for it).
	foreign := chain.Handle(1 << 20)

	alg := newAlg(t, true, squareRing(s)...)
	pass := alg.InjectRun(2*s, +1)
	pass.Mode = ModePassing
	pass.PassTarget = foreign // simulates a merged-away target
	pass.PassBudget = 10
	rep := stepOK(t, alg)
	if len(rep.Ends) != 1 || rep.Ends[0].Reason != TermPassTargetGone {
		t.Fatalf("want passing-target-removed, got %+v", rep.Ends)
	}

	alg2 := newAlg(t, true, squareRing(s)...)
	trav := alg2.InjectRun(2*s, +1)
	trav.Mode = ModeTraverse
	trav.TraverseLeft = 2
	trav.OpOrigin = trav.Host
	trav.OpTarget = foreign
	rep = stepOK(t, alg2)
	if len(rep.Ends) != 1 || rep.Ends[0].Reason != TermOpTargetGone {
		t.Fatalf("want operation-target-removed, got %+v", rep.Ends)
	}
	_ = trav
}

// TestFig5CornerStartHop: the corner start (Fig 5.ii / operation (c))
// performs the corner-cutting diagonal hop in its start round and the two
// new runs traverse before resuming.
func TestFig5CornerStartHop(t *testing.T) {
	const s = 16
	alg := newAlg(t, false, squareRing(s)...) // automatic starts on
	c := alg.Chain()
	corner := c.At(0) // (0,0)
	rep := stepOK(t, alg)
	if len(rep.Starts) != 8 {
		t.Fatalf("expected 8 runs at 4 corners, got %d", len(rep.Starts))
	}
	if rep.StartHops != 4 {
		t.Errorf("expected 4 corner-cut hops, got %d", rep.StartHops)
	}
	if c.PosOf(corner) != grid.V(1, 1) {
		t.Errorf("corner hopped to %v, want (1,1)", c.PosOf(corner))
	}
	for _, run := range alg.Runs() {
		if run.Kind != StartCorner {
			t.Errorf("run kind = %v, want corner", run.Kind)
		}
		if run.Mode != ModeTraverse {
			t.Errorf("new corner runs must traverse (operation c), got %v", run.Mode)
		}
	}
}

// TestFig9Pipelining: on a large square, new run generations start every
// L = 13 rounds while earlier generations are still travelling.
func TestFig9Pipelining(t *testing.T) {
	const s = 60
	alg := newAlg(t, false, squareRing(s)...)
	overlap := false
	for round := 0; round < 30 && !overlap; round++ {
		stepOK(t, alg)
		gens := map[int]bool{}
		for _, run := range alg.Runs() {
			gens[run.StartRound] = true
		}
		if len(gens) >= 2 {
			overlap = true
		}
	}
	if !overlap {
		t.Fatal("no overlapping run generations: pipelining inactive")
	}
}

// TestStepDeterminism: two simulations from the same configuration evolve
// identically (FSYNC is deterministic).
func TestStepDeterminism(t *testing.T) {
	mk := func() *Algorithm { return newAlg(t, false, squareRing(20)...) }
	a, b := mk(), mk()
	for round := 0; round < 120; round++ {
		ra := stepOK(t, a)
		rb := stepOK(t, b)
		if ra.ChainLen != rb.ChainLen || ra.Merges() != rb.Merges() ||
			ra.RunnerHops != rb.RunnerHops || len(ra.Starts) != len(rb.Starts) ||
			len(ra.Ends) != len(rb.Ends) {
			t.Fatalf("round %d diverged: %+v vs %+v", round, ra, rb)
		}
		if ra.Gathered {
			return
		}
	}
}

// TestGatheredStepNoOp: stepping a gathered configuration does nothing.
func TestGatheredStepNoOp(t *testing.T) {
	alg := newAlg(t, false,
		grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1))
	rep := stepOK(t, alg)
	if !rep.Gathered || rep.Merges() != 0 {
		t.Fatalf("gathered step must be a no-op, got %+v", rep)
	}
	if alg.Round() != 0 {
		t.Error("round counter must not advance on a gathered chain")
	}
}
