package chain

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"gridgather/internal/grid"
)

// square returns the unit square chain (0,0)(1,0)(1,1)(0,1).
func square() *Chain {
	return MustNew([]grid.Vec{grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1)})
}

// ringPositions returns the perimeter of a w x h rectangle as positions.
func ringPositions(w, h int) []grid.Vec {
	var ps []grid.Vec
	for x := 0; x < w; x++ {
		ps = append(ps, grid.V(x, 0))
	}
	for y := 0; y < h; y++ {
		ps = append(ps, grid.V(w, y))
	}
	for x := w; x > 0; x-- {
		ps = append(ps, grid.V(x, h))
	}
	for y := h; y > 0; y-- {
		ps = append(ps, grid.V(0, y))
	}
	return ps
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		ps   []grid.Vec
		want error
	}{
		{"too short", []grid.Vec{grid.V(0, 0)}, ErrTooShort},
		{"odd", []grid.Vec{grid.V(0, 0), grid.V(1, 0), grid.V(1, 1)}, ErrOddLength},
		{"zero edge", []grid.Vec{grid.V(0, 0), grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1), grid.V(0, 1)}, ErrZeroEdge},
		{"diagonal edge", []grid.Vec{grid.V(0, 0), grid.V(1, 1), grid.V(1, 0), grid.V(0, 1)}, ErrBadEdge},
		{"long edge", []grid.Vec{grid.V(0, 0), grid.V(2, 0), grid.V(2, 1), grid.V(0, 1)}, ErrBadEdge},
		{"not closing", []grid.Vec{grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(3, 0)}, ErrBadEdge},
	}
	for _, c := range cases {
		if _, err := New(c.ps); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := New(ringPositions(3, 2)); err != nil {
		t.Errorf("valid ring rejected: %v", err)
	}
}

func TestCyclicIndexing(t *testing.T) {
	c := square()
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Pos(0) != c.Pos(4) || c.Pos(-1) != c.Pos(3) || c.Pos(7) != c.Pos(3) {
		t.Error("cyclic indexing broken")
	}
	if c.At(2) != c.At(-2) {
		t.Error("At cyclic indexing broken")
	}
}

func TestEdgesAndTurns(t *testing.T) {
	c := square()
	wantEdges := []grid.Vec{grid.East, grid.North, grid.West, grid.South}
	for i, w := range wantEdges {
		if got := c.Edge(i); got != w {
			t.Errorf("Edge(%d) = %v, want %v", i, got, w)
		}
	}
	for i := 0; i < 4; i++ {
		if got := c.Turn(i); got != 1 {
			t.Errorf("Turn(%d) = %d, want 1 (ccw square)", i, got)
		}
	}
	if got := c.TotalTurning(); got != 4 {
		t.Errorf("TotalTurning = %d, want 4", got)
	}
}

func TestTotalTurningClockwise(t *testing.T) {
	// The square traversed clockwise turns -4.
	c := MustNew([]grid.Vec{grid.V(0, 0), grid.V(0, 1), grid.V(1, 1), grid.V(1, 0)})
	if got := c.TotalTurning(); got != -4 {
		t.Errorf("TotalTurning = %d, want -4", got)
	}
}

func TestIndexOfAndContains(t *testing.T) {
	c := square()
	for i := 0; i < c.Len(); i++ {
		r := c.At(i)
		if c.IndexOf(r) != i || !c.Contains(r) {
			t.Errorf("IndexOf/Contains wrong at %d", i)
		}
	}
	for _, stranger := range []Handle{None, Handle(999)} {
		if c.IndexOf(stranger) != -1 || c.Contains(stranger) {
			t.Errorf("foreign handle %d reported as member", stranger)
		}
	}
}

func TestBoundsAndGathered(t *testing.T) {
	c := square()
	b := c.Bounds()
	if b.Min != grid.V(0, 0) || b.Max != grid.V(1, 1) {
		t.Errorf("Bounds = %v", b)
	}
	if !c.Gathered() {
		t.Error("unit square is gathered (fits 2x2)")
	}
	big := MustNew(ringPositions(3, 1))
	if big.Gathered() {
		t.Error("3x1 ring is not gathered")
	}
	if big.Diameter() != 3 {
		t.Errorf("Diameter = %d, want 3", big.Diameter())
	}
}

// resolveAll seeds every robot into AppendResolveMergesAround, so the
// resolution examines the whole ring.
func resolveAll(c *Chain) []MergeEvent {
	return c.AppendResolveMergesAround(nil, append([]Handle(nil), c.Handles()...))
}

func TestResolveMergesPairs(t *testing.T) {
	// Note that on an even cycle a single zero edge is parity-impossible:
	// merges always arise in pairs, exactly as the paper's merge operation
	// produces them. This is the post-hop state of a k=2 merge pattern.
	c := MustNew(ringPositions(2, 1))
	after := []grid.Vec{
		grid.V(0, 0), grid.V(1, 0), grid.V(1, 0),
		grid.V(1, 1), grid.V(0, 1), grid.V(0, 1),
	}
	for i, p := range after {
		c.SetPos(c.At(i), p)
	}
	if err := c.CheckEdges(); err != nil {
		t.Fatalf("setup invalid: %v", err)
	}
	events := resolveAll(c)
	if len(events) != 2 {
		t.Fatalf("expected 2 merges, got %d", len(events))
	}
	if c.Len() != 4 {
		t.Fatalf("Len after merges = %d", c.Len())
	}
	if err := c.CheckEdges(); err != nil {
		t.Fatalf("edges invalid after merge: %v", err)
	}
	for _, ev := range events {
		if c.ID(ev.Survivor) > c.ID(ev.Removed) {
			t.Error("survivor must be the lower ID")
		}
		if c.Contains(ev.Removed) || !c.Contains(ev.Survivor) {
			t.Error("membership after merge wrong")
		}
	}
}

func TestResolveMergesCascade(t *testing.T) {
	// A pile of three chain neighbours on one point (as after a spike
	// merge hop): the cascade must remove two robots and leave a valid
	// chain without zero edges.
	c := MustNew(ringPositions(3, 1))
	after := []grid.Vec{
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(2, 1),
		grid.V(1, 1), grid.V(1, 1), grid.V(1, 1), grid.V(0, 1),
	}
	for i, p := range after {
		c.SetPos(c.At(i), p)
	}
	if err := c.CheckEdges(); err != nil {
		t.Fatalf("setup invalid: %v", err)
	}
	n := c.Len()
	events := resolveAll(c)
	if len(events) != 2 {
		t.Fatalf("expected 2 merges, got %d", len(events))
	}
	if c.Len() != n-len(events) {
		t.Errorf("length bookkeeping wrong: %d -> %d with %d events", n, c.Len(), len(events))
	}
	if err := c.CheckNoZeroEdges(); err != nil {
		t.Errorf("zero edges remain: %v", err)
	}
	if err := c.CheckEdges(); err != nil {
		t.Errorf("edges invalid: %v", err)
	}
}

func TestResolveMergesStopsAtTwo(t *testing.T) {
	c := MustNew([]grid.Vec{grid.V(0, 0), grid.V(1, 0), grid.V(0, 0), grid.V(1, 0)})
	// Co-locate everything on one point: a fully collapsed configuration.
	for i := 0; i < 4; i++ {
		c.SetPos(c.At(i), grid.V(0, 0))
	}
	resolveAll(c)
	if c.Len() != 2 {
		t.Fatalf("merging should stop at 2 robots, got %d", c.Len())
	}
	if !c.Gathered() {
		t.Error("2 co-located robots are gathered")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := MustNew(ringPositions(4, 2))
	cp := c.Clone()
	if cp.Len() != c.Len() {
		t.Fatal("clone length differs")
	}
	for i := 0; i < c.Len(); i++ {
		if cp.Pos(i) != c.Pos(i) {
			t.Fatal("clone must copy positions")
		}
		if cp.ID(cp.At(i)) != c.ID(c.At(i)) {
			t.Fatal("clone must preserve IDs")
		}
	}
	cp.SetPos(cp.At(0), grid.V(99, 99))
	if c.Pos(0) == grid.V(99, 99) {
		t.Error("clone shares robot storage")
	}
}

func TestEdgeRunsDecomposition(t *testing.T) {
	c := MustNew(ringPositions(3, 2))
	runs := c.EdgeRuns()
	total := 0
	for _, r := range runs {
		total += r.Len
		for j := 0; j < r.Len; j++ {
			if c.Edge(r.Start+j) != r.Dir {
				t.Fatalf("run %+v edge %d mismatch", r, j)
			}
		}
	}
	if total != c.Len() {
		t.Errorf("edge runs cover %d of %d edges", total, c.Len())
	}
	if len(runs) != 4 {
		t.Errorf("rectangle should decompose into 4 runs, got %d", len(runs))
	}
	// Consecutive runs have different directions.
	for i := range runs {
		next := runs[(i+1)%len(runs)]
		if runs[i].Dir == next.Dir {
			t.Errorf("adjacent runs share direction %v", runs[i].Dir)
		}
	}
}

func TestEdgeRunsSpiky(t *testing.T) {
	// Doubled path: (0,0)-(1,0)-(2,0)-(1,0): edges E,E,W,W.
	c := MustNew([]grid.Vec{grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(1, 0)})
	runs := c.EdgeRuns()
	if len(runs) != 2 || runs[0].Len != 2 || runs[1].Len != 2 {
		t.Errorf("unexpected decomposition: %+v", runs)
	}
}

func TestPerimeterLength(t *testing.T) {
	c := MustNew(ringPositions(5, 3))
	if got := c.PerimeterLength(); got != c.Len() {
		t.Errorf("PerimeterLength = %d, want %d", got, c.Len())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := MustNew(ringPositions(4, 3))
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Chain
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("round trip length %d != %d", back.Len(), c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		if back.Pos(i) != c.Pos(i) {
			t.Fatalf("round trip position %d: %v != %v", i, back.Pos(i), c.Pos(i))
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var c Chain
	if err := json.Unmarshal([]byte(`{"positions":[]}`), &c); !errors.Is(err, ErrEmptyDecode) {
		t.Errorf("empty decode: got %v", err)
	}
	if err := json.Unmarshal([]byte(`{"positions":[[0,0],[2,0]]}`), &c); !errors.Is(err, ErrBadEdge) {
		t.Errorf("invalid edges: got %v", err)
	}
	if err := json.Unmarshal([]byte(`not json`), &c); err == nil {
		t.Error("garbage accepted")
	}
}

// randomClosedWalkPositions builds a valid closed walk for property tests.
func randomClosedWalkPositions(rng *rand.Rand, pairs int) []grid.Vec {
	steps := make([]grid.Vec, 0, 2*pairs)
	h := 1 + rng.Intn(pairs)
	if h > pairs {
		h = pairs
	}
	for i := 0; i < h; i++ {
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
	return ps
}

func TestQuickClosedWalksAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, rawPairs uint8) bool {
		pairs := 2 + int(rawPairs)%40
		local := rand.New(rand.NewSource(seed))
		ps := randomClosedWalkPositions(local, pairs)
		c, err := New(ps)
		if err != nil {
			return false
		}
		return c.CheckEdges() == nil && c.Len() == 2*pairs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestQuickMergePreservesValidity(t *testing.T) {
	// Splicing a three-robot pile into a random valid chain (the post-hop
	// state of a spike merge) and resolving must always leave a valid,
	// shorter chain without zero edges.
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64, pick uint16) bool {
		local := rand.New(rand.NewSource(seed))
		base := randomClosedWalkPositions(local, 4+local.Intn(20))
		c, err := New(base)
		if err != nil {
			return false
		}
		i := int(pick) % len(base)
		// Insert two duplicates of position i+1 right after robot i: the
		// chain …, p_i, X, X, X=p_{i+1}, … is edge-valid by construction.
		pile := c.Pos(i + 1)
		withPile := make([]grid.Vec, 0, len(base)+2)
		for j := 0; j <= i; j++ {
			withPile = append(withPile, c.Pos(j))
		}
		withPile = append(withPile, pile, pile)
		for j := i + 1; j < len(base); j++ {
			withPile = append(withPile, c.Pos(j))
		}
		pc := fromPositions(withPile)
		if pc.CheckEdges() != nil {
			return false
		}
		before := pc.Len()
		events := resolveAll(pc)
		if len(events) != 2 {
			return false
		}
		return pc.Len() == before-len(events) &&
			pc.CheckEdges() == nil && pc.CheckNoZeroEdges() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestValidateInitialMatchesNew(t *testing.T) {
	ps := ringPositions(3, 3)
	if err := ValidateInitial(ps); err != nil {
		t.Errorf("valid ring rejected: %v", err)
	}
	bad := append([]grid.Vec{}, ps...)
	bad[2] = bad[1]
	if err := ValidateInitial(bad); !errors.Is(err, ErrZeroEdge) {
		t.Errorf("co-located neighbours: got %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on invalid input")
		}
	}()
	MustNew([]grid.Vec{grid.V(0, 0)})
}
