package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// Differential tests for the coded look-phase predicates. The lockstep
// oracle evaluates the very same core.EndpointAhead and core.DetectStart
// (DESIGN.md §7), so it cannot see a drift in them; the references below
// can. They read positions, not edge codes: posView is the position-based
// window the look phase used before it read one byte per edge, and the
// references are the buffered parser and the window-scan triple check the
// streaming versions replaced, kept as test-only references over it.

// ringState is a configuration's positions and handles in ring order,
// copied from the chain once, with a run mask the caller supplies.
type ringState struct {
	pos   []grid.Vec
	order []chain.Handle
	runs  []uint8
}

func ringOf(c *chain.Chain, runs []uint8) ringState {
	return ringState{pos: c.Positions(), order: append([]chain.Handle(nil), c.Handles()...), runs: runs}
}

// posView is one robot's window over a ringState, with the accessors of
// view.Snapshot computed from positions.
type posView struct {
	ringState
	center, v, n int
}

func (r ringState) view(center, v int) *posView {
	n := len(r.order)
	return &posView{ringState: r, center: ((center % n) + n) % n, v: v, n: n}
}

func (p *posView) V() int        { return p.v }
func (p *posView) ChainLen() int { return p.n }

// at returns the ring index of offset k, panicking outside the view.
func (p *posView) at(k int) int {
	if k < -p.v || k > p.v {
		panic(fmt.Sprintf("posView: offset %d outside viewing path length %d", k, p.v))
	}
	return ((p.center+k)%p.n + p.n) % p.n
}

func (p *posView) Rel(k int) grid.Vec       { return p.pos[p.at(k)].Sub(p.pos[p.center]) }
func (p *posView) Edge(k, d int) grid.Vec   { return p.Rel(k + d).Sub(p.Rel(k)) }
func (p *posView) Robot(k int) chain.Handle { return p.order[p.at(k)] }

// runAt reads the run mask at offset k for a run moving in dir.
func (p *posView) runAt(k, dir int) bool {
	i := p.at(k)
	return k != 0 && p.runs != nil && p.runs[i]&view.RunBit(dir) != 0
}

func (p *posView) HasRunAway(k int) bool    { return p.runAt(k, sgn(k)) }
func (p *posView) HasRunTowards(k int) bool { return p.runAt(k, -sgn(k)) }

func sgn(k int) int {
	if k < 0 {
		return -1
	}
	return 1
}

// AlignedAhead is the position-based window scan of view.Snapshot's
// AlignedAhead.
func (p *posView) AlignedAhead(d int) int {
	maxScan := min(p.v, p.n-1)
	if maxScan < 1 {
		return 0
	}
	first := p.Edge(0, d)
	if !first.IsAxisUnit() {
		return 0
	}
	count := 1
	for j := 2; j <= maxScan && p.Edge((j-1)*d, d) == first; j++ {
		count++
	}
	return count
}

// refEndpointAhead is the group-all quasi-line parser: it groups every edge
// within view into maximal runs of identical edges first, then walks the
// groups. EndpointAhead must agree with it on every snapshot.
func refEndpointAhead(s *posView, d int) (endOffset int, ok bool) {
	maxEdges := min(s.V(), s.ChainLen()-1)
	if maxEdges < 2 {
		return 0, false
	}
	e1 := s.Edge(0, d)
	e2 := s.Edge(d, d)
	eT := s.Edge(0, -d)
	axis := e1
	if e1.Perp(eT) && e2 != e1 && e2.Parallel(eT) {
		axis = e2
	}
	sameAxis := func(v grid.Vec) bool { return v.Parallel(axis) }

	type group struct {
		dir      grid.Vec
		len      int
		endRobot int
	}
	var groups []group
	for j := 0; j < maxEdges; j++ {
		e := s.Edge(j*d, d)
		if len(groups) > 0 && groups[len(groups)-1].dir == e {
			groups[len(groups)-1].len++
			groups[len(groups)-1].endRobot = j + 1
		} else {
			groups = append(groups, group{dir: e, len: 1, endRobot: j + 1})
		}
	}

	lineDir := grid.Vec{}
	if sameAxis(e1) {
		lineDir = e1
	} else if sameAxis(e2) {
		lineDir = e2
	}
	lastGood := 0
	prevStraight := false
	for i, g := range groups {
		last := i == len(groups)-1
		switch {
		case sameAxis(g.dir):
			if !lineDir.IsZero() && g.dir != lineDir {
				return lastGood, true
			}
			lineDir = g.dir
			if i > 0 && g.len == 1 && !last {
				return lastGood, true
			}
			lastGood = g.endRobot
			prevStraight = true
		default:
			if g.len >= 2 {
				return lastGood, true
			}
			if i > 0 && !prevStraight {
				return lastGood, true
			}
			prevStraight = false
		}
	}
	return 0, false
}

// refAlignedTriple is the window-scan triple check.
func refAlignedTriple(s *posView, d int) bool {
	return s.ChainLen() >= 3 && s.AlignedAhead(d) >= 2
}

// refDetectStart is DetectStart over refAlignedTriple, with the stairway
// check evaluating the triple again per direction.
func refDetectStart(s *posView) (StartSpec, bool) {
	if s.ChainLen() < MinChainForRuns {
		return StartSpec{}, false
	}
	aheadPlus := refAlignedTriple(s, +1)
	aheadMinus := refAlignedTriple(s, -1)
	ePlus := s.Edge(0, +1)
	eMinus := s.Edge(0, -1)
	if aheadPlus && aheadMinus && ePlus.Perp(eMinus) {
		return StartSpec{Dirs: []int{+1, -1}, Kind: StartCorner, Hop: ePlus.Add(eMinus)}, true
	}
	for _, d := range [2]int{+1, -1} {
		if spec, ok := refStairwayStart(s, d); ok {
			return spec, true
		}
	}
	return StartSpec{}, false
}

func refStairwayStart(s *posView, d int) (StartSpec, bool) {
	if !refAlignedTriple(s, d) {
		return StartSpec{}, false
	}
	axis := s.Edge(0, d)
	b1 := s.Edge(0, -d)
	if !b1.Perp(axis) {
		return StartSpec{}, false
	}
	b2 := s.Edge(-d, -d)
	if !b2.Parallel(axis) {
		return StartSpec{}, false
	}
	if b3 := s.Edge(-2*d, -d); b3 == b2 {
		return StartSpec{}, false
	}
	return StartSpec{Dirs: []int{d}, Kind: StartStairway}, true
}

// checkPredicates asserts that the coded predicates equal their
// position-based references at every index of c, in both directions, for
// V in {7, 11, n-1} — EndpointAhead, the triple check, DetectStart,
// AlignedAhead and the one-pass scan's endpoint, aligned count and edges
// at the observer — and that the merge scan equals the position-based
// scan it replaced over several chunkings and detection lengths. It
// returns the number of snapshots compared.
func checkPredicates(t testing.TB, c *chain.Chain, label string) int {
	t.Helper()
	n := c.Len()
	if n < 4 {
		return 0
	}
	checkMergeScan(t, c, label)
	ref := ringOf(c, nil)
	checked := 0
	for _, v := range []int{7, 11, n - 1} {
		for i := 0; i < n; i++ {
			s := snapV(c, i, v)
			p := ref.view(i, v)
			for _, d := range [2]int{+1, -1} {
				off, ok := EndpointAhead(s, d)
				wantOff, wantOK := refEndpointAhead(p, d)
				if off != wantOff || ok != wantOK {
					t.Fatalf("%s: EndpointAhead(V=%d, i=%d, d=%+d) = (%d, %v), reference (%d, %v)\nchain: %v",
						label, v, i, d, off, ok, wantOff, wantOK, c.Positions())
				}
				if got, want := alignedTriple(s, d, s.Edge(0, d)), refAlignedTriple(p, d); got != want {
					t.Fatalf("%s: alignedTriple(V=%d, i=%d, d=%+d) = %v, reference %v\nchain: %v",
						label, v, i, d, got, want, c.Positions())
				}
				if got, want := s.AlignedAhead(d), p.AlignedAhead(d); got != want {
					t.Fatalf("%s: AlignedAhead(V=%d, i=%d, d=%+d) = %d, reference %d", label, v, i, d, got, want)
				}
				var l lineScan
				scanLine(s, d, min(v, n-1), 0, &l)
				if l.aligned != p.AlignedAhead(d) || l.end != wantOff || l.endSeen != wantOK ||
					l.lead.Vec() != p.Edge(0, d) || l.trail.Vec() != p.Edge(0, -d) {
					t.Fatalf("%s: scanLine(V=%d, i=%d, d=%+d) = %+v, reference aligned %d, end (%d, %v), edges %v %v",
						label, v, i, d, l, p.AlignedAhead(d), wantOff, wantOK, p.Edge(0, d), p.Edge(0, -d))
				}
			}
			spec, ok := DetectStart(s)
			wantSpec, wantOK := refDetectStart(p)
			if ok != wantOK || !reflect.DeepEqual(spec, wantSpec) {
				t.Fatalf("%s: DetectStart(V=%d, i=%d) = (%+v, %v), reference (%+v, %v)\nchain: %v",
					label, v, i, spec, ok, wantSpec, wantOK, c.Positions())
			}
			checked++
		}
	}
	return checked
}

// checkGather runs checkPredicates on c and then on the configurations the
// paper strategy steps it through — every round up to rounds, or until it
// gathers — where the jogs, stairways and reversals the predicates judge
// actually arise. c is consumed.
func checkGather(t testing.TB, c *chain.Chain, rounds, every int, label string) int {
	t.Helper()
	checked := checkPredicates(t, c, label)
	alg, err := New(c, DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for r := 1; r <= rounds && !alg.Gathered(); r++ {
		if _, err := alg.Step(); err != nil {
			t.Fatalf("%s round %d: %v", label, r, err)
		}
		if r%every == 0 {
			checked += checkPredicates(t, c, label)
		}
	}
	return checked
}

// TestPredicatesMatchReference compares the streaming predicates with the
// buffered references over seeded walks, polyominoes, spirals, combs, every
// other named family and generate.FromBytes chains, each at its initial
// configuration and along its gathering run.
func TestPredicatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type input struct {
		label string
		c     *chain.Chain
	}
	var inputs []input
	add := func(label string, c *chain.Chain, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		inputs = append(inputs, input{label, c})
	}
	for _, n := range []int{16, 64, 160} {
		c, err := generate.RandomClosedWalk(n, rng)
		add("walk", c, err)
	}
	for _, cells := range []int{12, 60, 140} {
		c, err := generate.RandomPolyomino(cells, rng)
		add("polyomino", c, err)
	}
	for _, w := range []int{2, 4, 7} {
		c, err := generate.Spiral(w)
		add("spiral", c, err)
	}
	for _, tooth := range []int{2, 5, 9} {
		c, err := generate.Comb(4, tooth, 1+tooth%3)
		add("comb", c, err)
	}
	for _, name := range generate.Names() {
		c, err := generate.Named(name, 96, rng)
		add(name, c, err)
	}
	for k := 0; k < 12; k++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		c, err := generate.FromBytes(data)
		add("bytes", c, err)
	}
	checked := 0
	for _, in := range inputs {
		checked += checkGather(t, in.c, 600, 3, in.label)
	}
	if checked < 50000 {
		t.Errorf("compared only %d snapshots; the battery lost its inputs", checked)
	}
}

// FuzzPredicatesVsReference is the native fuzz form of the same property:
// any generate.FromBytes chain, at V in {7, 11, n-1} plus one fuzzed view,
// initially and along the first rounds of its gathering run.
func FuzzPredicatesVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}, uint8(0))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 0, 0, 1, 2, 2, 3}, uint8(5))
	f.Add([]byte("stairway-and-jog-shapes"), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, extra uint8) {
		if len(data) > 512 {
			return
		}
		c, err := generate.FromBytes(data)
		if err != nil {
			return
		}
		n := c.Len()
		if v := 3 + int(extra)%20; n >= 4 {
			ref := ringOf(c, nil)
			for i := 0; i < n; i++ {
				s := snapV(c, i, v)
				for _, d := range [2]int{+1, -1} {
					off, ok := EndpointAhead(s, d)
					if wantOff, wantOK := refEndpointAhead(ref.view(i, v), d); off != wantOff || ok != wantOK {
						t.Fatalf("EndpointAhead(V=%d, i=%d, d=%+d) = (%d, %v), reference (%d, %v)", v, i, d, off, ok, wantOff, wantOK)
					}
				}
			}
		}
		checkGather(t, c, 40, 1, "fuzz")
	})
}
