package core

import (
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// mustChain builds a chain from points, failing the test on invalid input.
func mustChain(t *testing.T, ps ...grid.Vec) *chain.Chain {
	t.Helper()
	c, err := chain.New(ps)
	if err != nil {
		t.Fatalf("bad test chain: %v", err)
	}
	return c
}

// mustPlan runs a fresh MergePlan over the chain, failing the test on a
// plan error.
func mustPlan(t *testing.T, c *chain.Chain, maxLen int) *MergePlan {
	t.Helper()
	plan := NewMergePlan()
	if err := plan.Plan(c, maxLen); err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFig2SpikeK1 reproduces the k=1 merge of Fig 2: a direction reversal
// whose two whites coincide. The doubled segment (0,0)-(1,0)-(2,0)-(1,0)
// has spikes at both turning points.
func TestFig2SpikeK1(t *testing.T) {
	c := mustChain(t, grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(1, 0))
	pats := DetectMerges(c, 10)
	if len(pats) != 2 {
		t.Fatalf("expected 2 spike patterns, got %d: %+v", len(pats), pats)
	}
	for _, p := range pats {
		if p.Len != 1 {
			t.Errorf("expected k=1, got %d", p.Len)
		}
	}
	plan := mustPlan(t, c, 10)
	// The spike at (2,0) hops west onto its whites; the spike at (0,0)
	// hops east.
	if h, _ := plan.Hop(c.At(2)); h != grid.West {
		t.Errorf("spike black at (2,0) hop = %v, want west", h)
	}
	if h, _ := plan.Hop(c.At(0)); h != grid.East {
		t.Errorf("spike black at (0,0) hop = %v, want east", h)
	}
	// All four robots participate (each is white for the other spike).
	participants := 0
	for i := 0; i < c.Len(); i++ {
		if plan.Participant(c.At(i)) {
			participants++
		}
	}
	if participants != 4 {
		t.Errorf("participants = %d, want 4", participants)
	}
}

// TestFig2UMergeK3 reproduces the k>1 merge of Fig 2 on a 2x1 ring: the
// bottom row is a straight black segment flanked by same-side whites.
func TestFig2UMergeK3(t *testing.T) {
	c := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0),
		grid.V(2, 1), grid.V(1, 1), grid.V(0, 1))
	pats := DetectMerges(c, 10)
	// Bottom row U (k=3, hop north), top row U (k=3, hop south), and the
	// two single-edge sides (k=2 each, hopping inward).
	if len(pats) != 4 {
		t.Fatalf("expected 4 patterns, got %d: %+v", len(pats), pats)
	}
	byLen := map[int]int{}
	for _, p := range pats {
		byLen[p.Len]++
	}
	if byLen[3] != 2 || byLen[2] != 2 {
		t.Errorf("pattern lengths wrong: %v", byLen)
	}
	plan := mustPlan(t, c, 10)
	// Corner robots are black in two perpendicular patterns and hop
	// diagonally (Fig 3.b rule).
	if h, _ := plan.Hop(c.At(0)); h != grid.V(1, 1) {
		t.Errorf("corner (0,0) hop = %v, want (1,1)", h)
	}
	if h, _ := plan.Hop(c.At(2)); h != grid.V(-1, 1) {
		t.Errorf("corner (2,0) hop = %v, want (-1,1)", h)
	}
	// Interior blacks hop straight.
	if h, _ := plan.Hop(c.At(1)); h != grid.North {
		t.Errorf("interior black hop = %v, want north", h)
	}
}

// TestFig2LengthCap checks that merge patterns longer than the detection
// bound are not reported: a pattern's k+2 robots must all see each other.
func TestFig2LengthCap(t *testing.T) {
	// A long 12x1 flat ring: the two rows have k=13 > 10, only the two
	// short ends (k=2) are detectable.
	var ps []grid.Vec
	for x := 0; x <= 12; x++ {
		ps = append(ps, grid.V(x, 0))
	}
	for x := 12; x >= 0; x-- {
		ps = append(ps, grid.V(x, 1))
	}
	c := mustChain(t, ps...)
	pats := DetectMerges(c, 10)
	if len(pats) != 2 {
		t.Fatalf("expected only the 2 end patterns, got %d", len(pats))
	}
	for _, p := range pats {
		if p.Len != 2 {
			t.Errorf("end pattern k = %d, want 2", p.Len)
		}
	}
	// With a larger cap the long rows become detectable too.
	pats = DetectMerges(c, 13)
	if len(pats) != 4 {
		t.Errorf("with cap 13 expected 4 patterns, got %d", len(pats))
	}
}

// TestFig3bOverlapByThree reproduces Fig 3.b: a hook where robot r is black
// in a horizontal and a vertical pattern; it must hop diagonally and land
// on both whites.
func TestFig3bOverlapByThree(t *testing.T) {
	// Hook: row y=2 eastwards to r=(2,2), down to a=(2,1), west to
	// b=(1,1), down to (1,0), west to (0,0), and close up the left side.
	c := mustChain(t,
		grid.V(0, 2), grid.V(1, 2), grid.V(2, 2), // row: ..., q, r
		grid.V(2, 1), // a
		grid.V(1, 1), // b
		grid.V(1, 0), grid.V(0, 0), grid.V(0, 1))
	plan := mustPlan(t, c, 10)
	r := c.At(2) // (2,2): end of the horizontal blacks and of the vertical blacks
	a := c.At(3) // (2,1): white of the horizontal pattern, black of the vertical
	b := c.At(4) // (1,1): white of the vertical pattern
	if h, _ := plan.Hop(r); h != grid.V(-1, -1) {
		t.Fatalf("r must hop diagonally to the lower left, got %v", h)
	}
	if h, _ := plan.Hop(a); h != grid.West {
		t.Fatalf("a must hop west (vertical pattern black), got %v", h)
	}
	// After the simultaneous hops r, a and b coincide (paper: "r, a, b are
	// located at the same position and a, b are removed").
	rHop, _ := plan.Hop(r)
	aHop, _ := plan.Hop(a)
	bHop, _ := plan.Hop(b)
	rAfter := c.PosOf(r).Add(rHop)
	aAfter := c.PosOf(a).Add(aHop)
	bAfter := c.PosOf(b).Add(bHop)
	if rAfter != bAfter || aAfter != bAfter {
		t.Fatalf("r,a,b must coincide after hops: %v %v %v", rAfter, aAfter, bAfter)
	}
}

// TestFig3aOverlapByTwo reproduces Fig 3.a on a crenellated wall: two
// adjacent U patterns share two robots; the shared robots swap without
// merging while the outermost whites (which do not move) give the
// shortening.
func TestFig3aOverlapByTwo(t *testing.T) {
	c := mustChain(t,
		grid.V(0, 0), grid.V(0, 1), grid.V(1, 1), grid.V(1, 0),
		grid.V(2, 0), grid.V(2, 1), grid.V(3, 1), grid.V(3, 0),
		grid.V(4, 0), grid.V(4, -1), grid.V(3, -1), grid.V(2, -1),
		grid.V(1, -1), grid.V(0, -1), grid.V(-1, -1), grid.V(-1, 0))
	plan := mustPlan(t, c, 10)
	up, down := c.At(1), c.At(2)   // (0,1),(1,1): first battlement, hop south
	mid1, mid2 := c.At(3), c.At(4) // (1,0),(2,0): valley, hop north
	upHop, _ := plan.Hop(up)
	downHop, _ := plan.Hop(down)
	if upHop != grid.South || downHop != grid.South {
		t.Errorf("battlement must hop south: %v %v", upHop, downHop)
	}
	mid1Hop, _ := plan.Hop(mid1)
	mid2Hop, _ := plan.Hop(mid2)
	if mid1Hop != grid.North || mid2Hop != grid.North {
		t.Errorf("valley must hop north: %v %v", mid1Hop, mid2Hop)
	}
	// Execute a full round and verify the chain shortens and stays valid.
	alg, err := New(c, Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 10, DisableRunStarts: true})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Len()
	rep, err := alg.StepActivated(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merges() < 2 {
		t.Errorf("expected at least 2 merges, got %d", rep.Merges())
	}
	if c.Len() != before-rep.Merges() {
		t.Errorf("length bookkeeping wrong")
	}
	if err := c.CheckEdges(); err != nil {
		t.Errorf("chain invalid after round: %v", err)
	}
	if err := c.CheckNoZeroEdges(); err != nil {
		t.Errorf("zero edges remain: %v", err)
	}
}

// TestMergeEquivariance: merge detection commutes with every grid symmetry
// (robots have no compass, so the rules must be direction-free).
func TestMergeEquivariance(t *testing.T) {
	base := []grid.Vec{
		grid.V(0, 2), grid.V(1, 2), grid.V(2, 2), grid.V(2, 1),
		grid.V(1, 1), grid.V(1, 0), grid.V(0, 0), grid.V(0, 1),
	}
	ref, err := chain.New(base)
	if err != nil {
		t.Fatal(err)
	}
	refPlan := mustPlan(t, ref, 10)
	for _, tr := range grid.D4 {
		mapped := make([]grid.Vec, len(base))
		for i, p := range base {
			mapped[i] = tr.Apply(p)
		}
		mc, err := chain.New(mapped)
		if err != nil {
			t.Fatalf("transform %+v produced invalid chain: %v", tr, err)
		}
		plan := mustPlan(t, mc, 10)
		if len(plan.Patterns) != len(refPlan.Patterns) {
			t.Errorf("transform %+v: %d patterns, want %d", tr, len(plan.Patterns), len(refPlan.Patterns))
		}
		for i := 0; i < ref.Len(); i++ {
			refHop, _ := refPlan.Hop(ref.At(i))
			want := tr.Apply(refHop)
			if got, _ := plan.Hop(mc.At(i)); got != want {
				t.Errorf("transform %+v robot %d: hop %v, want %v", tr, i, got, want)
			}
		}
	}
}

// TestDetectMergesNoFalsePositives: plain corners, jogs and straight runs
// of a mergeless structure must not be reported.
func TestDetectMergesNoFalsePositives(t *testing.T) {
	// A large square ring: four sides longer than the cap, corners all
	// turning the same way — a Mergeless Chain.
	var ps []grid.Vec
	const s = 12
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
	c := mustChain(t, ps...)
	if pats := DetectMerges(c, 10); len(pats) != 0 {
		t.Errorf("square ring must be mergeless, got %+v", pats)
	}
}

// TestMergeTinyChains: patterns whose k+2 exceeds the chain length must not
// be reported (the participants would not be distinct robots).
func TestMergeTinyChains(t *testing.T) {
	c := mustChain(t, grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1))
	pats := DetectMerges(c, 10)
	for _, p := range pats {
		if p.Len+2 > c.Len() {
			t.Errorf("pattern %+v exceeds chain length %d", p, c.Len())
		}
	}
}
