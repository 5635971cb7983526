package grid

import "fmt"

// Vec is a point on (or a displacement within) the integer grid Z^2.
type Vec struct {
	X, Y int
}

// V is shorthand for constructing a Vec.
func V(x, y int) Vec { return Vec{X: x, Y: y} }

// Zero is the origin / null displacement.
var Zero = Vec{}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Neg returns -v.
func (v Vec) Neg() Vec { return Vec{-v.X, -v.Y} }

// Scale returns k*v.
func (v Vec) Scale(k int) Vec { return Vec{k * v.X, k * v.Y} }

// Dot returns the scalar product of v and w.
func (v Vec) Dot(w Vec) int { return v.X*w.X + v.Y*w.Y }

// Cross returns the z component of the cross product v x w. Its sign gives
// the turn direction from v to w (positive = counter-clockwise).
func (v Vec) Cross(w Vec) int { return v.X*w.Y - v.Y*w.X }

// L1 returns the Manhattan norm |x| + |y|.
func (v Vec) L1() int { return abs(v.X) + abs(v.Y) }

// LInf returns the Chebyshev norm max(|x|, |y|).
func (v Vec) LInf() int { return max(abs(v.X), abs(v.Y)) }

// IsZero reports whether v is the origin.
func (v Vec) IsZero() bool { return v.X == 0 && v.Y == 0 }

// IsAxisUnit reports whether v is one of the four axis-aligned unit vectors,
// i.e. a legal chain edge of positive length.
func (v Vec) IsAxisUnit() bool { return v.L1() == 1 }

// IsChainEdge reports whether v is a legal displacement between two chain
// neighbours: the zero vector or an axis-aligned unit vector.
func (v Vec) IsChainEdge() bool { return v.L1() <= 1 }

// IsKingStep reports whether v is a legal single-round robot hop: a move to
// one of the 8 neighbouring grid points or staying put.
func (v Vec) IsKingStep() bool { return abs(v.X) <= 1 && abs(v.Y) <= 1 }

// Perp reports whether v and w are both axis units on different axes.
func (v Vec) Perp(w Vec) bool {
	return v.IsAxisUnit() && w.IsAxisUnit() && v.Dot(w) == 0
}

// Parallel reports whether v and w are axis units on the same axis
// (equal or opposite).
func (v Vec) Parallel(w Vec) bool {
	return v.IsAxisUnit() && w.IsAxisUnit() && v.Dot(w) != 0
}

// String renders the vector as "(x,y)".
func (v Vec) String() string { return fmt.Sprintf("(%d,%d)", v.X, v.Y) }

// The four axis directions. These names are simulator-internal; robots have
// no compass and never observe absolute directions.
var (
	East  = Vec{1, 0}
	West  = Vec{-1, 0}
	North = Vec{0, 1}
	South = Vec{0, -1}
)

// AxisDirs lists the four axis-aligned unit vectors in a fixed order.
var AxisDirs = [4]Vec{East, North, West, South}

// RotCCW returns v rotated 90 degrees counter-clockwise.
func (v Vec) RotCCW() Vec { return Vec{-v.Y, v.X} }

// RotCW returns v rotated 90 degrees clockwise.
func (v Vec) RotCW() Vec { return Vec{v.Y, -v.X} }

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// Transform is an element of the dihedral group D4 acting on Z^2 (the
// symmetries of the grid: 4 rotations, optionally composed with a mirror).
type Transform struct {
	// Rot is the number of counter-clockwise quarter turns (0..3), applied
	// after the optional mirror.
	Rot int
	// Mirror reflects across the x axis (negates y) before rotating.
	Mirror bool
}

// Identity is the neutral transform.
var Identity = Transform{}

// D4 enumerates all eight grid symmetries.
var D4 = func() [8]Transform {
	var ts [8]Transform
	i := 0
	for _, m := range []bool{false, true} {
		for r := 0; r < 4; r++ {
			ts[i] = Transform{Rot: r, Mirror: m}
			i++
		}
	}
	return ts
}()

// Apply maps v through the transform.
func (t Transform) Apply(v Vec) Vec {
	if t.Mirror {
		v = Vec{v.X, -v.Y}
	}
	for i := 0; i < t.Rot%4; i++ {
		v = v.RotCCW()
	}
	return v
}

// Compose returns the transform equivalent to applying t after u.
func (t Transform) Compose(u Transform) Transform {
	// Apply(u) then Apply(t). Derive by tracking basis images.
	ex := t.Apply(u.Apply(East))
	ey := t.Apply(u.Apply(North))
	return transformFromBasis(ex, ey)
}

// Inverse returns the transform undoing t.
func (t Transform) Inverse() Transform {
	for _, u := range D4 {
		if u.Compose(t) == Identity {
			return u
		}
	}
	panic("grid: transform has no inverse (impossible)")
}

func transformFromBasis(ex, ey Vec) Transform {
	for _, t := range D4 {
		if t.Apply(East) == ex && t.Apply(North) == ey {
			return t
		}
	}
	panic("grid: basis images do not describe a D4 element")
}

// Box is an axis-aligned bounding box, inclusive on all sides.
// The zero Box is empty.
type Box struct {
	Min, Max Vec
	nonempty bool
}

// BoxOf returns the bounding box of the given points.
func BoxOf(pts ...Vec) Box {
	var b Box
	for _, p := range pts {
		b.Include(p)
	}
	return b
}

// Include grows the box to contain p.
func (b *Box) Include(p Vec) {
	if !b.nonempty {
		b.Min, b.Max, b.nonempty = p, p, true
		return
	}
	b.Min.X = min(b.Min.X, p.X)
	b.Min.Y = min(b.Min.Y, p.Y)
	b.Max.X = max(b.Max.X, p.X)
	b.Max.Y = max(b.Max.Y, p.Y)
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool { return !b.nonempty }

// Width returns the number of grid columns covered (0 when empty).
func (b Box) Width() int {
	if b.Empty() {
		return 0
	}
	return b.Max.X - b.Min.X + 1
}

// Height returns the number of grid rows covered (0 when empty).
func (b Box) Height() int {
	if b.Empty() {
		return 0
	}
	return b.Max.Y - b.Min.Y + 1
}

// Contains reports whether p lies in the box.
func (b Box) Contains(p Vec) bool {
	return b.nonempty &&
		b.Min.X <= p.X && p.X <= b.Max.X &&
		b.Min.Y <= p.Y && p.Y <= b.Max.Y
}

// FitsSquare reports whether the box fits inside a k x k subgrid.
// Gathering in the paper's sense is FitsSquare(2).
func (b Box) FitsSquare(k int) bool {
	return b.Width() <= k && b.Height() <= k
}

// String renders the box as "[min..max]".
func (b Box) String() string {
	if b.Empty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%v..%v]", b.Min, b.Max)
}

// EdgeCode is the one-byte code of a chain edge: the displacement between
// two chain neighbours, which is the zero vector or one of the four axis
// units. Every other displacement maps to the single sentinel EdgeOther.
// The look phase reads a chain as a string of these codes — a robot of the
// paper sees its neighbours' relative positions, which are exactly the
// unit steps between them — so the predicates it needs are bit operations
// on one byte instead of arithmetic on two-word vectors.
//
// Layout: bit 2 marks an axis unit, bit 0 its vertical axis and bit 1 its
// negative sign; the zero edge is 0 and EdgeOther has bit 2 clear, so it
// is neither a unit nor parallel or perpendicular to anything. Two codes
// are equal exactly when their chain edges are; all non-chain
// displacements share EdgeOther, so equality carries no information
// between two of them.
type EdgeCode uint8

// The five chain-edge codes and the sentinel.
const (
	EdgeZero  EdgeCode = 0
	EdgeEast  EdgeCode = 4
	EdgeNorth EdgeCode = 5
	EdgeWest  EdgeCode = 6
	EdgeSouth EdgeCode = 7
	EdgeOther EdgeCode = 8
)

// edgeOfUnitBox codes the displacements with |x|, |y| <= 1, indexed by
// (x+1)*3 + (y+1).
var edgeOfUnitBox = [9]EdgeCode{
	EdgeOther, EdgeWest, EdgeOther,
	EdgeSouth, EdgeZero, EdgeNorth,
	EdgeOther, EdgeEast, EdgeOther,
}

// EdgeOf returns the code of displacement v: its chain-edge code, or
// EdgeOther when v is not a chain edge.
func EdgeOf(v Vec) EdgeCode {
	x, y := uint(v.X+1), uint(v.Y+1)
	if x > 2 || y > 2 {
		return EdgeOther
	}
	return edgeOfUnitBox[x*3+y]
}

// edgeVecs decodes the chain-edge codes (indices 1..3 are unused).
var edgeVecs = [8]Vec{EdgeZero: Zero, EdgeEast: East, EdgeNorth: North, EdgeWest: West, EdgeSouth: South}

// Vec returns the displacement of a chain-edge code. EdgeOther stands for
// every non-chain displacement at once and has none; decoding it panics.
func (c EdgeCode) Vec() Vec {
	if c > EdgeSouth {
		panic("grid: EdgeOther has no single displacement")
	}
	return edgeVecs[c]
}

// IsUnit reports whether c codes an axis unit (Vec.IsAxisUnit).
func (c EdgeCode) IsUnit() bool { return c&4 != 0 }

// Parallel reports whether c and e are axis units on the same axis, equal
// or opposite (Vec.Parallel).
func (c EdgeCode) Parallel(e EdgeCode) bool { return (c&e)>>2&^(c^e)&1 != 0 }

// Perp reports whether c and e are axis units on different axes
// (Vec.Perp).
func (c EdgeCode) Perp(e EdgeCode) bool { return (c&e)>>2&(c^e)&1 != 0 }

// Neg returns the code of the reversed edge: an axis unit flips its sign
// bit, while the zero edge and EdgeOther are their own negation.
func (c EdgeCode) Neg() EdgeCode { return c ^ (c>>1)&2 }

// String renders the code as its displacement, or "other".
func (c EdgeCode) String() string {
	if c > EdgeSouth {
		return "other"
	}
	return c.Vec().String()
}
