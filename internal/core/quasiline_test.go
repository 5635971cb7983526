package core

import (
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// squareRing returns the positions of an s x s square ring (4s robots),
// counterclockwise from (0,0). For s >= 11 it is a Mergeless Chain.
func squareRing(s int) []grid.Vec {
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
	return ps
}

// stairwayChain returns a 12-robot closed chain whose robot 0 matches the
// Fig 5.(i) stairway start pattern in direction +1.
func stairwayChain(t *testing.T) *chain.Chain {
	return mustChain(t,
		grid.V(2, 2), grid.V(3, 2), grid.V(4, 2), // e, a1, a2 (quasi line)
		grid.V(5, 2), grid.V(5, 3), grid.V(5, 4),
		grid.V(4, 4), grid.V(3, 4), grid.V(2, 4), grid.V(1, 4), // roof
		grid.V(1, 3), grid.V(2, 3), // b2, b1 (stairway behind e)
	)
}

// jogChain is like stairwayChain but the structure behind robot 0 continues
// straight for three robots: an interior jog, not an endpoint.
func jogChain(t *testing.T) *chain.Chain {
	return mustChain(t,
		grid.V(2, 2), grid.V(3, 2), grid.V(4, 2),
		grid.V(4, 3), grid.V(4, 4),
		grid.V(3, 4), grid.V(2, 4), grid.V(1, 4), grid.V(0, 4),
		grid.V(0, 3), grid.V(1, 3), grid.V(2, 3), // b3, b2, b1: straight run
	)
}

func snap(c *chain.Chain, i int) *view.Snapshot {
	return snapV(c, i, DefaultViewingPathLength)
}

// snapV is snap with an explicit viewing path length.
func snapV(c *chain.Chain, i, v int) *view.Snapshot {
	s := new(view.Snapshot)
	view.At(s, c, i, v, nil)
	return s
}

func TestDetectStartCorner(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	// Robot 0 at (0,0): horizontal arm ahead (+1), vertical arm behind
	// (-1): the Fig 5.(ii) corner — two runs and the corner-cut hop.
	spec, ok := DetectStart(snap(c, 0))
	if !ok {
		t.Fatal("corner start not detected at (0,0)")
	}
	if spec.Kind != StartCorner || len(spec.Dirs) != 2 {
		t.Fatalf("wrong spec: %+v", spec)
	}
	if spec.Hop != grid.V(1, 1) {
		t.Errorf("corner-cut hop = %v, want (1,1) (into the square)", spec.Hop)
	}
	// All four corners detect; mid-side robots do not.
	for _, idx := range []int{12, 24, 36} {
		if _, ok := DetectStart(snap(c, idx)); !ok {
			t.Errorf("corner at index %d not detected", idx)
		}
	}
	for _, idx := range []int{3, 17, 30} {
		if spec, ok := DetectStart(snap(c, idx)); ok {
			t.Errorf("mid-side robot %d must not start runs, got %+v", idx, spec)
		}
	}
}

func TestDetectStartStairway(t *testing.T) {
	c := stairwayChain(t)
	spec, ok := DetectStart(snap(c, 0))
	if !ok {
		t.Fatal("stairway start not detected")
	}
	if spec.Kind != StartStairway {
		t.Fatalf("kind = %v, want stairway", spec.Kind)
	}
	if len(spec.Dirs) != 1 || spec.Dirs[0] != +1 {
		t.Fatalf("dirs = %v, want [+1]", spec.Dirs)
	}
	if !spec.Hop.IsZero() {
		t.Errorf("stairway starts do not hop, got %v", spec.Hop)
	}
}

func TestDetectStartInteriorJogSuppressed(t *testing.T) {
	c := jogChain(t)
	if spec, ok := DetectStart(snap(c, 0)); ok {
		t.Errorf("interior jog must not start runs, got %+v", spec)
	}
}

func TestDetectStartTinyChainSuppressed(t *testing.T) {
	c := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1))
	for i := 0; i < c.Len(); i++ {
		if _, ok := DetectStart(snap(c, i)); ok {
			t.Errorf("chains below MinChainForRuns must not start runs (robot %d)", i)
		}
	}
}

func TestDetectStartEquivariance(t *testing.T) {
	base := stairwayChain(t).Positions()
	for _, tr := range grid.D4 {
		mapped := make([]grid.Vec, len(base))
		for i, p := range base {
			mapped[i] = tr.Apply(p)
		}
		c, err := chain.New(mapped)
		if err != nil {
			t.Fatalf("transform %+v invalid: %v", tr, err)
		}
		spec, ok := DetectStart(snap(c, 0))
		if !ok {
			t.Errorf("transform %+v: stairway start lost", tr)
			continue
		}
		if spec.Kind != StartStairway || len(spec.Dirs) != 1 || spec.Dirs[0] != +1 {
			t.Errorf("transform %+v: wrong spec %+v", tr, spec)
		}
	}
}

func TestDetectStartReversedChain(t *testing.T) {
	// Chain direction is arbitrary: reversing the robot order must still
	// detect the pattern (with the direction flipped).
	base := stairwayChain(t).Positions()
	rev := make([]grid.Vec, len(base))
	for i, p := range base {
		rev[(len(base)-i)%len(base)] = p
	}
	c, err := chain.New(rev)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := DetectStart(snap(c, 0))
	if !ok {
		t.Fatal("stairway start lost under chain reversal")
	}
	if len(spec.Dirs) != 1 || spec.Dirs[0] != -1 {
		t.Fatalf("dirs = %v, want [-1]", spec.Dirs)
	}
}

func TestEndpointAheadAtSquareCorner(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	// From a robot on the bottom row, looking towards the corner at
	// (12,0) (index 12): the quasi line ends there (the right side is a
	// perpendicular run of >= 2 edges).
	for _, tc := range []struct {
		idx      int
		wantOff  int
		wantSeen bool
	}{
		{8, 4, true},  // corner 4 ahead: endpoint confirmed
		{11, 1, true}, // corner adjacent
		{2, 0, false}, // corner 10 ahead + 2 confirm edges > horizon 11: not confirmed
		{1, 0, false}, // far beyond horizon
	} {
		off, ok := EndpointAhead(snap(c, tc.idx), +1)
		if ok != tc.wantSeen {
			t.Errorf("idx %d: seen=%v, want %v", tc.idx, ok, tc.wantSeen)
			continue
		}
		if ok && off != tc.wantOff {
			t.Errorf("idx %d: endpoint offset %d, want %d", tc.idx, off, tc.wantOff)
		}
	}
}

func TestEndpointAheadJogContinues(t *testing.T) {
	// A long quasi line with interior jogs: no endpoint within view.
	var ps []grid.Vec
	// Eastward staircase with 4-robot runs and single jogs up, then close
	// with a big arc; only the first robots' forward view matters.
	x, y := 0, 0
	for seg := 0; seg < 4; seg++ {
		for i := 0; i < 4; i++ {
			ps = append(ps, grid.V(x, y))
			x++
		}
		ps = append(ps, grid.V(x, y))
		y++ // jog up: next segment one row higher
	}
	// Close the loop high above so the return path is far outside the
	// viewing range of robot 0.
	top := y + 8
	ps = append(ps, grid.V(x, y))
	for yy := y + 1; yy <= top; yy++ {
		ps = append(ps, grid.V(x, yy))
	}
	for xx := x - 1; xx >= 0; xx-- {
		ps = append(ps, grid.V(xx, top))
	}
	for yy := top - 1; yy >= 1; yy-- {
		ps = append(ps, grid.V(0, yy))
	}
	if len(ps)%2 != 0 {
		// keep even length by extending the left descent with a detour
		ps = append(ps, grid.V(0, 1)) // placeholder, replaced below
		ps = ps[:len(ps)-1]
		ps = append(ps[:len(ps)-1], grid.V(-1, 1), grid.V(-1, 0), grid.V(0, 0))
		ps = ps[:len(ps)-1]
	}
	c, err := chain.New(ps)
	if err != nil {
		t.Skipf("construction imbalance: %v", err)
	}
	if off, ok := EndpointAhead(snapV(c, 0, 11), +1); ok {
		t.Errorf("quasi line with jogs reported endpoint at %d", off)
	}
}

func TestEndpointAheadReversal(t *testing.T) {
	// A spike three robots ahead is a quasi-line violation: endpoint at
	// the last straight robot.
	c := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(3, 0),
		grid.V(2, 0), grid.V(2, 1), grid.V(1, 1), grid.V(0, 1))
	off, ok := EndpointAhead(snap(c, 0), +1)
	if !ok {
		t.Fatal("reversal ahead not detected")
	}
	if off != 3 {
		t.Errorf("endpoint offset %d, want 3", off)
	}
}

func TestEndpointAheadPureStairway(t *testing.T) {
	// Standing on pure alternation: the quasi line has ended right here.
	c := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(2, 1),
		grid.V(2, 2), grid.V(3, 2), grid.V(3, 3), grid.V(4, 3),
		grid.V(4, 4), grid.V(3, 4), grid.V(2, 4), grid.V(1, 4),
		grid.V(0, 4), grid.V(0, 3), grid.V(0, 2), grid.V(0, 1))
	off, ok := EndpointAhead(snap(c, 0), +1)
	if !ok {
		t.Fatal("pure stairway must report an immediate endpoint")
	}
	if off > 1 {
		t.Errorf("endpoint offset %d, want <= 1", off)
	}
}

func TestCornerAt(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	at := func(i int) bool {
		s := snap(c, i)
		return cornerAt(s.Edge(0, +1), s.Edge(0, -1))
	}
	if !at(0) || !at(12) {
		t.Error("ring corners not recognised")
	}
	if at(5) {
		t.Error("mid-side robot is not a corner")
	}
}

// TestScanLineReadsPastEarlyEndpoint pins the part of the one-pass scan's
// contract the engine never exercises: a quasi line can end within two
// robots only at a reversal (a spike one robot ahead), where the run's
// host is a merge white and terminates before it looks, yet scanLine
// must still read the run mask on to the passing trigger's distance.
func TestScanLineReadsPastEarlyEndpoint(t *testing.T) {
	c := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(0, 0), grid.V(-1, 0),
		grid.V(-1, 1), grid.V(0, 1))
	runs := make([]uint8, c.Len())
	runs[3] = view.RunsMinus // moving towards robot 0
	var s view.Snapshot
	view.At(&s, c, 0, DefaultViewingPathLength, runs)
	var l lineScan
	scanLine(&s, +1, c.Len()-1, PassingTriggerDistance, &l)
	want := lineScan{end: 1, endSeen: true, aligned: 1, lead: grid.EdgeEast, trail: grid.EdgeNorth, towards: 3}
	if l != want {
		t.Fatalf("scanLine = %+v, want %+v", l, want)
	}
}
