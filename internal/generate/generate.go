package generate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// ErrBadParam reports an invalid generator parameter.
var ErrBadParam = errors.New("generate: invalid parameter")

// Cell identifies a unit grid cell by its lower-left corner.
type Cell struct{ X, Y int }

// CellSet is a polyomino: a finite set of cells.
type CellSet map[Cell]bool

// NewCellSet builds a set from cells.
func NewCellSet(cells ...Cell) CellSet {
	s := make(CellSet, len(cells))
	for _, c := range cells {
		s[c] = true
	}
	return s
}

// TraceBoundary walks the outer boundary of the polyomino counterclockwise
// (interior kept on the left) and returns the visited lattice points as a
// closed chain. Holes inside the polyomino are ignored — only the outer
// boundary is traced. Pinch points (cells touching diagonally) are handled;
// the resulting chain may then visit a grid point twice, which the robot
// model allows for non-neighbours.
func TraceBoundary(cells CellSet) (*chain.Chain, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("%w: empty cell set", ErrBadParam)
	}
	// Start at the lower-left corner of the bottom-most, then left-most
	// cell, heading East: this vertex is always on the outer boundary.
	var start Cell
	first := true
	for c := range cells {
		if first || c.Y < start.Y || (c.Y == start.Y && c.X < start.X) {
			start, first = c, false
		}
	}
	pos := grid.V(start.X, start.Y)
	dir := grid.East
	origin, originDir := pos, dir

	var pts []grid.Vec
	for steps := 0; ; steps++ {
		if steps > 8*(len(cells)+4)*(len(cells)+4) {
			return nil, fmt.Errorf("%w: boundary trace did not close", ErrBadParam)
		}
		lf, rf := frontCells(pos, dir)
		switch {
		case cells[lf] && !cells[rf]:
			pts = append(pts, pos)
			pos = pos.Add(dir)
		case cells[lf] || cells[rf]:
			// Interior ahead, or a pinch point (diagonally touching
			// cells): turn right to keep the union's boundary in one
			// closed curve.
			dir = dir.RotCW()
		default: // both front cells empty: convex corner, turn left
			dir = dir.RotCCW()
		}
		if pos == origin && dir == originDir && len(pts) > 0 {
			break
		}
	}
	return chain.New(pts)
}

// frontCells returns the cells left-front and right-front of a walker at
// lattice point p heading d.
func frontCells(p grid.Vec, d grid.Vec) (lf, rf Cell) {
	switch d {
	case grid.East:
		return Cell{p.X, p.Y}, Cell{p.X, p.Y - 1}
	case grid.North:
		return Cell{p.X - 1, p.Y}, Cell{p.X, p.Y}
	case grid.West:
		return Cell{p.X - 1, p.Y - 1}, Cell{p.X - 1, p.Y}
	case grid.South:
		return Cell{p.X, p.Y - 1}, Cell{p.X - 1, p.Y - 1}
	default:
		panic("generate: non-axis walking direction")
	}
}

// Rectangle returns the boundary chain of a w x h cell rectangle
// (n = 2(w+h) robots). Rectangle(m, 1) is the flat ring the algorithm
// collapses by end merges. The chain is the one TraceBoundary yields for
// the filled rectangle — counterclockwise from (0, 0), heading East — but
// it is written out side by side, so building it costs O(w+h) instead of
// a w*h cell map.
func Rectangle(w, h int) (*chain.Chain, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("%w: rectangle %dx%d", ErrBadParam, w, h)
	}
	pts := make([]grid.Vec, 0, 2*(w+h))
	for x := 0; x < w; x++ {
		pts = append(pts, grid.V(x, 0))
	}
	for y := 0; y < h; y++ {
		pts = append(pts, grid.V(w, y))
	}
	for x := w; x > 0; x-- {
		pts = append(pts, grid.V(x, h))
	}
	for y := h; y > 0; y-- {
		pts = append(pts, grid.V(0, y))
	}
	return chain.New(pts)
}

// Histogram returns the boundary of a histogram polyomino: column i has
// heights[i] >= 1 cells. Long bottom quasi line, staircase skyline.
func Histogram(heights []int) (*chain.Chain, error) {
	if len(heights) == 0 {
		return nil, fmt.Errorf("%w: empty histogram", ErrBadParam)
	}
	cells := make(CellSet)
	for x, h := range heights {
		if h < 1 {
			return nil, fmt.Errorf("%w: histogram height %d at column %d", ErrBadParam, h, x)
		}
		for y := 0; y < h; y++ {
			cells[Cell{x, y}] = true
		}
	}
	return TraceBoundary(cells)
}

// RandomHistogram returns a histogram with the given number of columns and
// heights uniform in [1, maxHeight].
func RandomHistogram(columns, maxHeight int, rng *rand.Rand) (*chain.Chain, error) {
	if columns < 1 || maxHeight < 1 {
		return nil, fmt.Errorf("%w: histogram %d columns, max height %d", ErrBadParam, columns, maxHeight)
	}
	hs := make([]int, columns)
	for i := range hs {
		hs[i] = 1 + rng.Intn(maxHeight)
	}
	return Histogram(hs)
}

// Staircase returns the boundary of a staircase polyomino with the given
// number of steps, each step `run` cells wide and one cell tall. Both sides
// of the boundary are long stairways connected by quasi lines.
func Staircase(steps, run int) (*chain.Chain, error) {
	if steps < 1 || run < 1 {
		return nil, fmt.Errorf("%w: staircase steps=%d run=%d", ErrBadParam, steps, run)
	}
	cells := make(CellSet)
	for s := 0; s < steps; s++ {
		for x := s * run; x < (s+1)*run; x++ {
			// Column from ground to step level keeps the polyomino simply
			// connected and the boundary simple.
			for y := 0; y <= s; y++ {
				cells[Cell{x, y}] = true
			}
		}
	}
	return TraceBoundary(cells)
}

// Comb returns the boundary of a comb polyomino: a 1-cell-high spine with
// `teeth` vertical teeth of height toothLen, spaced `gap` cells apart.
// Combs produce many nested quasi lines and exercise pipelining.
func Comb(teeth, toothLen, gap int) (*chain.Chain, error) {
	if teeth < 1 || toothLen < 1 || gap < 1 {
		return nil, fmt.Errorf("%w: comb teeth=%d toothLen=%d gap=%d", ErrBadParam, teeth, toothLen, gap)
	}
	cells := make(CellSet)
	width := teeth + (teeth-1)*gap
	for x := 0; x < width; x++ {
		cells[Cell{x, 0}] = true
	}
	for t := 0; t < teeth; t++ {
		x := t * (gap + 1)
		for y := 1; y <= toothLen; y++ {
			cells[Cell{x, y}] = true
		}
	}
	return TraceBoundary(cells)
}

// Spiral returns the boundary of a rectangular spiral corridor polyomino
// with the given number of windings. Spirals maximise chain length relative
// to their bounding box and are the classic linear-time stress case.
func Spiral(windings int) (*chain.Chain, error) {
	if windings < 1 {
		return nil, fmt.Errorf("%w: spiral windings=%d", ErrBadParam, windings)
	}
	// March a 1-cell-wide corridor inward with pitch 2 (one empty row or
	// column between parallel arms): segment lengths a, a-2, a-2, a-4,
	// a-4, … until the centre is reached.
	const pitch = 2
	a := 2*pitch*windings + pitch
	cells := make(CellSet)
	pos := Cell{0, 0}
	cells[pos] = true
	dir := grid.East
	length := a
	for seg := 0; length > pitch; seg++ {
		for i := 0; i < length; i++ {
			pos = Cell{pos.X + dir.X, pos.Y + dir.Y}
			cells[pos] = true
		}
		dir = dir.RotCCW()
		if seg%2 == 0 {
			length -= pitch
		}
	}
	return TraceBoundary(cells)
}

// growCells grows a random polyomino of the given cell count by repeatedly
// attaching a uniformly random frontier cell (an Eden cluster). The
// frontier lives in a slice with swap-removal, so growth is near-linear
// and deterministic for a seeded rng.
func growCells(cells int, rng *rand.Rand) CellSet {
	set := NewCellSet(Cell{0, 0})
	frontier := []Cell{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	queued := map[Cell]bool{{1, 0}: true, {-1, 0}: true, {0, 1}: true, {0, -1}: true}
	for len(set) < cells && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		c := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		delete(queued, c)
		set[c] = true
		for _, d := range grid.AxisDirs {
			nb := Cell{c.X + d.X, c.Y + d.Y}
			if !set[nb] && !queued[nb] {
				frontier = append(frontier, nb)
				queued[nb] = true
			}
		}
	}
	return set
}

// RandomPolyomino grows a polyomino of the given cell count by repeatedly
// attaching a uniformly random frontier cell, then traces its boundary.
// Enclosed holes are possible; only the outer boundary becomes the chain.
func RandomPolyomino(cells int, rng *rand.Rand) (*chain.Chain, error) {
	if cells < 1 {
		return nil, fmt.Errorf("%w: polyomino cells=%d", ErrBadParam, cells)
	}
	return TraceBoundary(growCells(cells, rng))
}

// RandomClosedWalk returns a uniformly shuffled closed lattice walk with n
// steps: n/2 horizontal (half East, half West — or as close as parity
// allows) and n/2 vertical. The walk may self-cross and double back; it is
// the adversarial "tangled chain" workload.
func RandomClosedWalk(n int, rng *rand.Rand) (*chain.Chain, error) {
	if n < 4 || n%2 != 0 {
		return nil, fmt.Errorf("%w: closed walk length %d (need even >= 4)", ErrBadParam, n)
	}
	// Choose how many horizontal step pairs to use: at least one pair of
	// each axis when possible, keeping the walk two-dimensional.
	pairs := n / 2
	h := 1 + rng.Intn(pairs-1) // 1..pairs-1 horizontal pairs
	steps := make([]grid.Vec, 0, n)
	for i := 0; i < h; i++ {
		steps = append(steps, grid.East, grid.West)
	}
	for i := h; i < pairs; i++ {
		steps = append(steps, grid.North, grid.South)
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	pts := make([]grid.Vec, n)
	p := grid.Zero
	for i, s := range steps {
		pts[i] = p
		p = p.Add(s)
	}
	return chain.New(pts)
}

// DoubledPath returns the chain that runs along a random open walk of m
// steps and back (n = 2m robots). Both turning points are spikes, so the
// chain shortens from both ends by merges: the merge-mechanics stress test.
func DoubledPath(m int, rng *rand.Rand) (*chain.Chain, error) {
	if m < 2 {
		return nil, fmt.Errorf("%w: doubled path m=%d", ErrBadParam, m)
	}
	// A self-avoiding-ish staircase walk: never reverse the previous step,
	// so consecutive path points are distinct and the doubled chain is
	// valid.
	p := grid.Zero
	path := []grid.Vec{p}
	prev := grid.Vec{}
	for len(path) <= m {
		d := grid.AxisDirs[rng.Intn(4)]
		if d == prev.Neg() && !prev.IsZero() {
			continue
		}
		p = p.Add(d)
		path = append(path, p)
		prev = d
	}
	pts := make([]grid.Vec, 0, 2*m)
	pts = append(pts, path...)
	for i := len(path) - 2; i >= 1; i-- {
		pts = append(pts, path[i])
	}
	return chain.New(pts)
}

// LShape returns the boundary of an L-shaped polyomino with the given arm
// lengths and thickness.
func LShape(armA, armB, thick int) (*chain.Chain, error) {
	if armA < 1 || armB < 1 || thick < 1 {
		return nil, fmt.Errorf("%w: L-shape %d/%d/%d", ErrBadParam, armA, armB, thick)
	}
	cells := make(CellSet)
	for x := 0; x < armA+thick; x++ {
		for y := 0; y < thick; y++ {
			cells[Cell{x, y}] = true
		}
	}
	for y := 0; y < armB+thick; y++ {
		for x := 0; x < thick; x++ {
			cells[Cell{x, y}] = true
		}
	}
	return TraceBoundary(cells)
}

// Serpentine returns the boundary of a snake corridor polyomino that winds
// through `rows` rows of length `length`: long nested quasi lines with
// alternating orientation.
func Serpentine(rows, length int) (*chain.Chain, error) {
	if rows < 1 || length < 2 {
		return nil, fmt.Errorf("%w: serpentine rows=%d length=%d", ErrBadParam, rows, length)
	}
	cells := make(CellSet)
	for r := 0; r < rows; r++ {
		y := 2 * r
		for x := 0; x < length; x++ {
			cells[Cell{x, y}] = true
		}
		if r+1 < rows {
			// connector column alternating sides
			x := 0
			if r%2 == 0 {
				x = length - 1
			}
			cells[Cell{x, y + 1}] = true
		}
	}
	return TraceBoundary(cells)
}

// Inflate scales a polyomino by an integer factor: every cell becomes a
// k x k block. Every straight segment of the boundary grows by the same
// factor, so inflating by more than the merge detection length yields a
// guaranteed Mergeless Chain (used by the Lemma 1 structure experiments).
func Inflate(cells CellSet, k int) (CellSet, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: inflate factor %d", ErrBadParam, k)
	}
	out := make(CellSet, len(cells)*k*k)
	for c := range cells {
		for dx := 0; dx < k; dx++ {
			for dy := 0; dy < k; dy++ {
				out[Cell{c.X*k + dx, c.Y*k + dy}] = true
			}
		}
	}
	return out, nil
}

// MergelessPolyomino grows a random polyomino and inflates it so that all
// boundary segments exceed segMin robots: the result is a Mergeless Chain
// for any merge detection length below segMin.
func MergelessPolyomino(cells, segMin int, rng *rand.Rand) (*chain.Chain, error) {
	if cells < 1 || segMin < 1 {
		return nil, fmt.Errorf("%w: mergeless polyomino cells=%d segMin=%d", ErrBadParam, cells, segMin)
	}
	inflated, err := Inflate(growCells(cells, rng), segMin+1)
	if err != nil {
		return nil, err
	}
	return TraceBoundary(inflated)
}

// Named enumerates the structured generator families by name for CLI use.
// Parameters are solved so the chain has roughly `size` robots, which keeps
// scaling sweeps honest across families.
func Named(name string, size int, rng *rand.Rand) (*chain.Chain, error) {
	if size < 4 {
		size = 4
	}
	isqrt := func(v int) int {
		r := int(math.Sqrt(float64(v)))
		return max(r, 1)
	}
	switch name {
	case "rectangle":
		// n = 4*side.
		return Rectangle(max(size/4, 1), max(size/4, 1))
	case "flatring":
		// n = 2*(w+1).
		return Rectangle(max(size/2-1, 1), 1)
	case "histogram":
		// n ≈ columns*(2 + E|Δh|) with heights in [1,8]: ≈ 6.6*columns.
		return RandomHistogram(max(size/7, 2), 8, rng)
	case "staircase":
		// n ≈ 2*steps*(run+1) with run = 2.
		return Staircase(max(size/6, 2), 2)
	case "comb":
		// n ≈ 6*teeth + 2*teeth*toothLen.
		teeth := max(isqrt(size)/3, 2)
		toothLen := max((size-6*teeth)/(2*teeth), 1)
		return Comb(teeth, toothLen, 2)
	case "spiral":
		// n ≈ 17*windings².
		return Spiral(max(isqrt(size/17), 1))
	case "polyomino":
		// Eden clusters are compact: boundary ≈ 9*sqrt(cells).
		return RandomPolyomino(max((size/9)*(size/9), 2), rng)
	case "walk":
		return RandomClosedWalk(max(size-size%2, 4), rng)
	case "doubled":
		// n = 2*m.
		return DoubledPath(max(size/2, 2), rng)
	case "serpentine":
		// n ≈ 2*rows*length.
		rows := max(isqrt(size)/4, 1)
		return Serpentine(rows, max(size/(2*rows), 2))
	case "lshape":
		// n ≈ 4*arm + O(thickness).
		return LShape(max(size/6, 1), max(size/6, 1), max(size/12, 1))
	default:
		return nil, fmt.Errorf("%w: unknown shape %q", ErrBadParam, name)
	}
}

// Names lists the families accepted by Named.
func Names() []string {
	return []string{
		"rectangle", "flatring", "histogram", "staircase", "comb",
		"spiral", "polyomino", "walk", "doubled", "serpentine", "lshape",
	}
}
