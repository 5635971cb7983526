package generate

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gridgather/internal/chain"
)

// validate asserts the generator produced a legal initial configuration.
func validate(t *testing.T, name string, c *chain.Chain, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := c.CheckEdges(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := c.CheckNoZeroEdges(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if c.Len()%2 != 0 {
		t.Fatalf("%s: odd length %d", name, c.Len())
	}
}

func TestRectangle(t *testing.T) {
	c, err := Rectangle(5, 3)
	validate(t, "rectangle", c, err)
	if c.Len() != 16 {
		t.Errorf("5x3 rectangle perimeter = %d robots, want 16", c.Len())
	}
	if got := c.TotalTurning(); got != 4 && got != -4 {
		t.Errorf("simple rectangle total turning = %d", got)
	}
	if _, err := Rectangle(0, 3); err == nil {
		t.Error("degenerate rectangle accepted")
	}
}

// TestRectangleMatchesTraceBoundary pins the side-by-side construction to
// the boundary trace of the filled cell rectangle, robot for robot.
func TestRectangleMatchesTraceBoundary(t *testing.T) {
	for w := 1; w <= 24; w++ {
		for h := 1; h <= 24; h++ {
			got, err := Rectangle(w, h)
			if err != nil {
				t.Fatal(err)
			}
			cells := make(CellSet, w*h)
			for x := 0; x < w; x++ {
				for y := 0; y < h; y++ {
					cells[Cell{x, y}] = true
				}
			}
			want, err := TraceBoundary(cells)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Positions(), want.Positions()) {
				t.Fatalf("Rectangle(%d, %d) = %v, boundary trace %v", w, h, got.Positions(), want.Positions())
			}
		}
	}
}

func TestTraceBoundarySingleCell(t *testing.T) {
	c, err := TraceBoundary(NewCellSet(Cell{0, 0}))
	validate(t, "cell", c, err)
	if c.Len() != 4 {
		t.Errorf("single cell boundary = %d, want 4", c.Len())
	}
}

func TestTraceBoundaryPinch(t *testing.T) {
	// Two cells touching diagonally: the boundary visits the pinch vertex
	// twice; the chain is still valid (non-neighbours may share a point).
	c, err := TraceBoundary(NewCellSet(Cell{0, 0}, Cell{1, 1}))
	validate(t, "pinch", c, err)
	if c.Len() != 8 {
		t.Errorf("pinch boundary = %d robots, want 8", c.Len())
	}
}

func TestTraceBoundaryEmpty(t *testing.T) {
	if _, err := TraceBoundary(NewCellSet()); err == nil {
		t.Error("empty cell set accepted")
	}
}

func TestHistogram(t *testing.T) {
	c, err := Histogram([]int{2, 5, 1, 4, 4, 3})
	validate(t, "histogram", c, err)
	if _, err := Histogram([]int{2, 0, 1}); err == nil {
		t.Error("zero height accepted")
	}
	if _, err := Histogram(nil); err == nil {
		t.Error("empty histogram accepted")
	}
}

func TestStaircase(t *testing.T) {
	c, err := Staircase(4, 3)
	validate(t, "staircase", c, err)
	if _, err := Staircase(0, 3); err == nil {
		t.Error("degenerate staircase accepted")
	}
}

func TestComb(t *testing.T) {
	c, err := Comb(4, 5, 2)
	validate(t, "comb", c, err)
	// A comb has 2*teeth reflex corners; total turning stays +-4.
	if got := c.TotalTurning(); got != 4 && got != -4 {
		t.Errorf("comb total turning = %d", got)
	}
	if _, err := Comb(1, 0, 1); err == nil {
		t.Error("degenerate comb accepted")
	}
}

func TestSpiral(t *testing.T) {
	for w := 1; w <= 6; w++ {
		c, err := Spiral(w)
		validate(t, "spiral", c, err)
		// Spirals are long relative to their bounding box: at least 4x
		// the diameter for multiple windings.
		if w >= 3 && c.Len() < 3*c.Diameter() {
			t.Errorf("spiral(%d): n=%d vs diameter %d — not spiral-like", w, c.Len(), c.Diameter())
		}
	}
	if _, err := Spiral(0); err == nil {
		t.Error("degenerate spiral accepted")
	}
}

func TestSerpentine(t *testing.T) {
	c, err := Serpentine(5, 20)
	validate(t, "serpentine", c, err)
	if _, err := Serpentine(0, 20); err == nil {
		t.Error("degenerate serpentine accepted")
	}
}

func TestLShape(t *testing.T) {
	c, err := LShape(6, 9, 3)
	validate(t, "lshape", c, err)
	if _, err := LShape(0, 1, 1); err == nil {
		t.Error("degenerate L accepted")
	}
}

func TestRandomClosedWalkProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64, raw uint8) bool {
		n := 4 + 2*(int(raw)%100)
		local := rand.New(rand.NewSource(seed))
		c, err := RandomClosedWalk(n, local)
		if err != nil {
			return false
		}
		return c.Len() == n && c.CheckEdges() == nil && c.CheckNoZeroEdges() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
	if _, err := RandomClosedWalk(3, rng); err == nil {
		t.Error("odd length accepted")
	}
	if _, err := RandomClosedWalk(2, rng); err == nil {
		t.Error("length 2 accepted")
	}
}

func TestRandomPolyominoProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64, raw uint8) bool {
		cells := 1 + int(raw)%60
		local := rand.New(rand.NewSource(seed))
		c, err := RandomPolyomino(cells, local)
		if err != nil {
			return false
		}
		return c.CheckEdges() == nil && c.CheckNoZeroEdges() == nil && c.Len()%2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestDoubledPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		m := 2 + rng.Intn(50)
		c, err := DoubledPath(m, rng)
		validate(t, "doubled", c, err)
		if c.Len() != 2*m {
			t.Errorf("doubled path length = %d, want %d", c.Len(), 2*m)
		}
	}
}

func TestRandomHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 20; i++ {
		c, err := RandomHistogram(2+rng.Intn(30), 1+rng.Intn(10), rng)
		validate(t, "random histogram", c, err)
	}
}

func TestNamedFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, name := range Names() {
		c, err := Named(name, 96, rng)
		validate(t, name, c, err)
		if c.Len() < 4 {
			t.Errorf("%s produced a trivial chain (n=%d)", name, c.Len())
		}
	}
	if _, err := Named("nonsense", 96, rng); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a, err := RandomPolyomino(40, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomPolyomino(40, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("same seed, different shapes")
	}
	for i := 0; i < a.Len(); i++ {
		if a.Pos(i) != b.Pos(i) {
			t.Fatal("same seed, different positions")
		}
	}
}
