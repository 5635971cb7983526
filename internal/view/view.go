package view

import (
	"fmt"
	"math/bits"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// Run-direction mask bits. A run mask is a ring-indexed []uint8: entry i
// holds one bit per moving direction of the run states carried by the
// robot at cyclic index i. Directions are chain directions (+1 towards
// increasing index, -1 the other way); an observer compares them against
// its own viewing direction, so no global orientation is implied. A nil
// mask means no runs anywhere.
const (
	RunsPlus  uint8 = 1 << iota // a run moving towards increasing chain index
	RunsMinus                   // a run moving towards decreasing chain index
)

// RunBit returns the mask bit of a run moving in chain direction dir
// (+1 or -1).
func RunBit(dir int) uint8 {
	if dir > 0 {
		return RunsPlus
	}
	return RunsMinus
}

// Snapshot is one robot's view of the chain: the robots at chain offsets
// -V..+V relative to itself. Offsets wrap around the closed chain, so on a
// short chain the same robot can appear at several offsets, exactly as a
// robot with local vision would perceive it.
//
// The view holds no positions: the chain is read as its string of edge
// codes (grid.EdgeCode), the unit steps between neighbours, from which
// every relative position follows.
type Snapshot struct {
	// edges, order and runs alias ring-indexed arrays (chain.EdgeCodes,
	// chain.Handles and the caller's run mask): a window access is one
	// array load with no indirection through handles. Snapshots are
	// look-phase values — the aliases are valid until the chain splices,
	// which only happens after all views are consumed.
	edges  []grid.EdgeCode
	order  []chain.Handle
	runs   []uint8
	center int
	v      int
	n      int
	// wraps records whether the window [center-v, center+v] crosses the
	// ends of the ring; when it does not, an offset maps to its ring index
	// by one addition.
	wraps bool
}

// At fills s with the view of the robot at index center with viewing path
// length v. runs is the ring-indexed run mask (nil when run states are
// irrelevant).
func At(s *Snapshot, ch *chain.Chain, center, v int, runs []uint8) {
	Over(s, ch.EdgeCodes(), ch.Handles(), center, v, runs)
}

// Over fills s directly over ring-indexed slices, without a *chain.Chain
// behind them: the one snapshot constructor, which At wraps for the
// engine's chain and which alternate chain backends call directly — the
// conformance oracle's naive model (internal/oracle) codes its pointer
// ring's edges into a plain slice each round and evaluates the same pure
// decision predicates the engine uses, so engine and model cannot drift
// apart at the rule level. edges[i] is the code of the edge from the
// robot at cyclic index i to the one at i+1, order[i] the handle at i;
// runs is nil or covers every index.
func Over(s *Snapshot, edges []grid.EdgeCode, order []chain.Handle, center, v int, runs []uint8) {
	// Field by field: a composite literal would be built in a temporary
	// and copied, a cost paid once per run per round.
	n := len(order)
	center = chain.WrapIndex(center, n)
	s.edges, s.order, s.runs = edges, order, runs
	s.center = center
	s.v, s.n = v, n
	s.wraps = center-v < 0 || center+v >= n
}

// idx maps a window offset to a ring index (the shared cyclic-wrap
// arithmetic of chain.WrapIndex, needed only when the window wraps).
func (s *Snapshot) idx(k int) int {
	if s.wraps {
		return chain.WrapIndex(s.center+k, s.n)
	}
	return s.center + k
}

// V returns the viewing path length.
func (s *Snapshot) V() int { return s.v }

// check panics when an offset outside the viewing range is requested —
// that would be a non-local rule, which the model forbids.
func (s *Snapshot) check(k int) {
	if k < -s.v || k > s.v {
		panic(fmt.Sprintf("view: offset %d outside viewing path length %d (non-local rule)", k, s.v))
	}
}

// Edge returns the code of the chain edge leaving the robot at offset k in
// direction d (+1 or -1): the displacement Rel(k+d) - Rel(k). Both robots
// must be in view.
func (s *Snapshot) Edge(k, d int) grid.EdgeCode {
	s.check(k + d)
	s.check(k)
	if d > 0 {
		return s.edges[s.idx(k)]
	}
	return s.edges[s.idx(k-1)].Neg()
}

// Rel returns the position of the robot at chain offset k relative to the
// observing robot: the sum of the edges between them. Rel(0) is always
// the zero vector. It costs |k| edge reads; the predicates compare edges
// instead.
func (s *Snapshot) Rel(k int) grid.Vec {
	s.check(k)
	var p grid.Vec
	for j := 0; j < k; j++ {
		p = p.Add(s.edges[s.idx(j)].Vec())
	}
	for j := 0; j > k; j-- {
		p = p.Sub(s.edges[s.idx(j-1)].Vec())
	}
	return p
}

// HasRunTowards reports whether the robot at offset k carries a run whose
// moving direction points towards the observer (i.e. opposite to the sign
// of k). For k = 0 it reports false.
func (s *Snapshot) HasRunTowards(k int) bool {
	if k == 0 {
		return false
	}
	return s.hasRun(k, -sign(k))
}

// HasRunAway reports whether the robot at offset k carries a run moving
// away from the observer (same sign as k).
func (s *Snapshot) HasRunAway(k int) bool {
	if k == 0 {
		return false
	}
	return s.hasRun(k, sign(k))
}

// hasRun reads the run mask at offset k for a run moving in dir.
func (s *Snapshot) hasRun(k, dir int) bool {
	s.check(k)
	return s.runs != nil && s.runs[s.idx(k)]&RunBit(dir) != 0
}

// Robot exposes the handle of the robot at offset k for engine bookkeeping
// (run ownership hand-off and merge invalidation). Decision rules must not
// use robot identity; see the package comment.
func (s *Snapshot) Robot(k int) chain.Handle {
	s.check(k)
	return s.order[s.idx(k)]
}

// ChainLen returns the current chain length. A robot does not know n, but
// the snapshot uses it to recognise wrap-around in tests; rules must not
// branch on it beyond guarding degenerate tiny chains, which is equivalent
// to seeing one's own chain close within the viewing range.
func (s *Snapshot) ChainLen() int { return s.n }

// AlignedAhead returns the number of robots j >= 1 such that the robots at
// offsets 0, d, 2d, …, jd form a straight segment of identical unit edges
// (the "next j robots on a straight line" of the paper's run operations).
// It scans at most the viewing range and at most ChainLen()-1 robots.
func (s *Snapshot) AlignedAhead(d int) int {
	maxScan := min(s.v, s.n-1)
	if maxScan < 1 {
		return 0
	}
	return s.aligned(d, maxScan)
}

// aligned counts the identical unit edges in front of the observer in
// direction d, reading at most k of them through a Ray.
func (s *Snapshot) aligned(d, k int) int {
	r := s.Ahead(d, k)
	first := r.Next()
	if !first.IsUnit() {
		return 0
	}
	count := 1
	for count < k && r.Next() == first {
		count++
	}
	return count
}

// Ray is a cursor over the window in front of the observer in one chain
// direction, opened by Snapshot.Ahead: it yields the edges leaving the
// robots at offsets 0, d, 2d, … one by one, each oriented along d, and
// reads the run mask of the robot the last edge arrived at. Its whole
// range is checked against the viewing path length once, at its farthest
// offset, when it is opened; reading past that range panics like any
// other non-local access. A Ray reads the ring arrays in place, so a
// predicate that walks a window pays one load per edge and no call.
type Ray struct {
	edges []grid.EdgeCode
	runs  []uint8
	at    int // ring index of the robot the cursor stands at
	left  int // edges still in the checked range
	fwd   bool
	away  uint8 // mask bit of a run moving away from the observer
}

// Ahead opens a Ray over the k edges in front of the observer in chain
// direction d (+1 or -1): the robots at offsets d, 2d, …, kd must all be
// in view.
func (s *Snapshot) Ahead(d, k int) Ray {
	s.check(k * d)
	return Ray{edges: s.edges, runs: s.runs, at: s.center, left: k, fwd: d > 0, away: RunBit(d)}
}

// Next returns the code of the edge leaving the robot the cursor stands
// at, oriented along the ray, and moves the cursor to the robot it
// arrives at.
func (r *Ray) Next() grid.EdgeCode {
	if r.left == 0 {
		panic("view: ray read past its checked offset (non-local rule)")
	}
	r.left--
	i := r.at
	if r.fwd {
		c := r.edges[i]
		if i++; i == len(r.edges) {
			i = 0
		}
		r.at = i
		return c
	}
	if i == 0 {
		i = len(r.edges)
	}
	i--
	r.at = i
	return r.edges[i].Neg()
}

// Runs reports the run states of the robot the cursor stands at: whether
// it carries a run moving away from the observer, and one moving towards
// it (HasRunAway and HasRunTowards at its offset).
func (r *Ray) Runs() (away, towards bool) {
	if r.runs == nil {
		return false, false
	}
	m := r.runs[r.at]
	return m&r.away != 0, m&^r.away != 0
}

// Word returns the eight ring entries b[i], …, b[i+7] packed into one
// uint64, b[i] in the low byte; it panics unless all eight are in range.
// It is the look phase's one word read, of edge codes and run-mask bytes
// alike: the merge and start scans skip straight stretches eight edges per
// compare, and Straight and RunsAhead read a window that does not wrap in
// two overlapping loads each. The byte-wise form compiles to a single load
// on the 64-bit targets Go optimises it for, and is portable elsewhere.
func Word[T ~uint8](b []T, i int) uint64 {
	b = b[i : i+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// bytes01 has a one in every byte: multiplying a byte by it repeats the
// byte across a word.
const bytes01 = 0x0101010101010101

// Straight reports whether the k >= 1 edges in front of the observer in
// chain direction d are one axis unit repeated: Edge(0, d) is a unit and
// so is every edge up to the robot at offset kd, all equal to it. Like
// Ahead it checks the farthest offset once, and it reads what a Ray over
// Ahead(d, k) yields. Since Neg is a bijection, the oriented edges are all
// equal exactly when their raw codes are, so a window of k >= 8 edges
// that does not wrap the ring is compared in words, the last one
// overlapping its predecessor (at most two loads for k <= 16); a wrapping
// or shorter window is read edge by edge.
func (s *Snapshot) Straight(d, k int) bool {
	s.check(k * d)
	lo := s.center // ring index of the window's first raw code
	if d < 0 {
		lo -= k
	}
	if k < 8 || lo < 0 || lo+k > s.n {
		return s.aligned(d, k) == k
	}
	c := s.edges[lo]
	w := uint64(c) * bytes01
	for j := lo; j < lo+k-8; j += 8 {
		if Word(s.edges, j) != w {
			return false
		}
	}
	return Word(s.edges, lo+k-8) == w && c.IsUnit()
}

// RunsAhead returns the first offsets j in 1..k whose robot, at offset
// jd, carries a run moving away from the observer, and one moving towards
// it; 0 when none does. It checks the farthest offset once, like Ahead,
// and equals reading Runs after every Next of a Ray over Ahead(d, k). A
// window of k >= 8 robots that does not wrap the ring is read in words
// (ring order reversed for d = -1), the last one overlapping its
// predecessor (at most two loads for k <= 16); a wrapping or shorter
// window is read robot by robot.
func (s *Snapshot) RunsAhead(d, k int) (away, towards int) {
	s.check(k * d)
	if s.runs == nil {
		return 0, 0
	}
	lo := s.center + 1 // ring index of the window's lowest robot
	if d < 0 {
		lo = s.center - k
	}
	if k < 8 || lo < 0 || lo+k > s.n {
		r := s.Ahead(d, k)
		for j := 1; j <= k && (away == 0 || towards == 0); j++ {
			r.Next()
			a, t := r.Runs()
			if a && away == 0 {
				away = j
			}
			if t && towards == 0 {
				towards = j
			}
		}
		return away, towards
	}
	awayBits, towardsBits := uint64(RunBit(d))*bytes01, uint64(RunBit(-d))*bytes01
	for base := 1; ; base += 8 {
		// w holds offsets base..base+7, the nearest in the low byte; the
		// last word overlaps its predecessor so as to end at offset k.
		last := base+7 >= k
		if last {
			base = k - 7
		}
		var w uint64
		if d > 0 {
			w = Word(s.runs, s.center+base)
		} else {
			w = bits.ReverseBytes64(Word(s.runs, s.center-base-7))
		}
		if m := w & awayBits; m != 0 && away == 0 {
			away = base + bits.TrailingZeros64(m)/8
		}
		if m := w & towardsBits; m != 0 && towards == 0 {
			towards = base + bits.TrailingZeros64(m)/8
		}
		if last || (away != 0 && towards != 0) {
			return away, towards
		}
	}
}

func sign(k int) int {
	switch {
	case k > 0:
		return 1
	case k < 0:
		return -1
	default:
		return 0
	}
}
