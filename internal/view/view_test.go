package view

import (
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

func ring(t *testing.T, w, h int) *chain.Chain {
	t.Helper()
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
	c, err := chain.New(ps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// at returns a fresh snapshot of the robot at center.
func at(c *chain.Chain, center, v int, runs []uint8) *Snapshot {
	s := new(Snapshot)
	At(s, c, center, v, runs)
	return s
}

func TestRelIsRelative(t *testing.T) {
	c := ring(t, 6, 4)
	for center := 0; center < c.Len(); center += 5 {
		s := at(c, center, 11, nil)
		if s.Rel(0) != grid.Zero {
			t.Fatalf("Rel(0) = %v", s.Rel(0))
		}
		for k := -11; k <= 11; k++ {
			want := c.Pos(center + k).Sub(c.Pos(center))
			if got := s.Rel(k); got != want {
				t.Fatalf("center %d offset %d: %v != %v", center, k, got, want)
			}
		}
	}
}

func TestLocalityEnforced(t *testing.T) {
	c := ring(t, 10, 10)
	s := at(c, 0, 11, nil)
	defer func() {
		if recover() == nil {
			t.Error("offset beyond the viewing path length must panic")
		}
	}()
	s.Rel(12)
}

func TestLocalityEnforcedNegative(t *testing.T) {
	c := ring(t, 10, 10)
	s := at(c, 0, 11, nil)
	defer func() {
		if recover() == nil {
			t.Error("negative offset beyond the viewing path length must panic")
		}
	}()
	s.HasRunAway(-12)
}

func TestEdge(t *testing.T) {
	c := ring(t, 6, 4)
	s := at(c, 0, 11, nil)
	if got := s.Edge(0, +1); got != grid.EdgeEast {
		t.Errorf("Edge(0,+1) = %v", got)
	}
	if got := s.Edge(0, -1); got != grid.EdgeNorth {
		// Robot before (0,0) on the ring is (0,1).
		t.Errorf("Edge(0,-1) = %v", got)
	}
	if got := s.Edge(2, 1); got != grid.EdgeEast {
		t.Errorf("Edge(2,1) = %v", got)
	}
}

func TestWrapAroundShortChain(t *testing.T) {
	c := ring(t, 2, 1) // 6 robots, shorter than the viewing range
	s := at(c, 0, 11, nil)
	// Offset 6 wraps to the robot itself.
	if s.Rel(6) != grid.Zero {
		t.Errorf("wrapped Rel(6) = %v", s.Rel(6))
	}
	if s.Robot(6) != s.Robot(0) {
		t.Error("wrapped Robot(6) must be the observer")
	}
}

// fakeRuns builds the run mask marking the robots at the given ring
// indices with run directions.
func fakeRuns(c *chain.Chain, dirs map[int][]int) []uint8 {
	mask := make([]uint8, c.Len())
	for i, ds := range dirs {
		for _, d := range ds {
			mask[i] |= RunBit(d)
		}
	}
	return mask
}

func TestRunVisibility(t *testing.T) {
	c := ring(t, 8, 8)
	runs := fakeRuns(c, map[int][]int{
		3: {+1},
		5: {-1},
		7: {+1, -1},
	})
	s := at(c, 0, 11, runs)
	if !s.HasRunAway(3) {
		t.Error("run at +3 moving +1 must read as moving away")
	}
	if s.HasRunTowards(3) {
		t.Error("run at +3 moving +1 is not approaching")
	}
	if !s.HasRunTowards(5) {
		t.Error("run at +5 moving -1 must read as approaching")
	}
	if !s.HasRunTowards(7) || !s.HasRunAway(7) {
		t.Error("robot with two runs must read as both")
	}
	if s.HasRunTowards(0) || s.HasRunAway(0) {
		t.Error("offset 0 carries no directional reading")
	}
	// Looking backwards: the run at +3 seen from robot 6 is at offset -3
	// and moves towards larger indices, i.e. towards robot 6: approaching.
	s6 := at(c, 6, 11, runs)
	if !s6.HasRunTowards(-3) {
		t.Error("run at -3 moving +1 must read as approaching")
	}
	if s6.HasRunAway(-3) {
		t.Error("run at -3 moving +1 does not move away from robot 6")
	}
}

func TestAlignedAhead(t *testing.T) {
	c := ring(t, 8, 3)
	s := at(c, 0, 11, nil)
	// Bottom row has 9 robots: from (0,0), 8 are aligned ahead.
	if got := s.AlignedAhead(+1); got != 8 {
		t.Errorf("AlignedAhead(+1) = %d, want 8", got)
	}
	// Behind (0,0) the left column rises: 3 aligned.
	if got := s.AlignedAhead(-1); got != 3 {
		t.Errorf("AlignedAhead(-1) = %d, want 3", got)
	}
	// From a robot one before the corner.
	s = at(c, 7, 11, nil)
	if got := s.AlignedAhead(+1); got != 1 {
		t.Errorf("AlignedAhead from pre-corner = %d, want 1", got)
	}
}

func TestNilRunMask(t *testing.T) {
	c := ring(t, 4, 4)
	s := at(c, 0, 11, nil)
	for k := -11; k <= 11; k++ {
		if s.HasRunAway(k) || s.HasRunTowards(k) {
			t.Fatalf("a nil run mask must report no runs (offset %d)", k)
		}
	}
}

// TestSnapshotAccessorsMatchNaive checks every accessor at every centre
// and offset against the naive lookup pos[order[wrap(center+k)]]: windows
// that stay inside the ring, windows that wrap, chains shorter than the
// 2V+1 window, and the n-1 view of the start-pair walk. Rays are checked
// the same way, opened at every length the view allows in both
// directions.
func TestSnapshotAccessorsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{1, 1}, {2, 1}, {3, 2}, {6, 4}, {10, 10}, {25, 3}} {
		c := ring(t, dims[0], dims[1])
		n := c.Len()
		order := c.Handles()
		wrap := func(i int) int { return ((i % n) + n) % n }
		pos := func(i int) grid.Vec { return c.PosOf(order[wrap(i)]) }
		mask := make([]uint8, n)
		for i := range mask {
			mask[i] = uint8(rng.Intn(4))
		}
		for _, v := range []int{1, 3, 11, n - 1, 2*n + 1} {
			for center := -n; center < 2*n; center++ {
				s := at(c, center, v, mask)
				if s.ChainLen() != n || s.V() != v {
					t.Fatalf("n=%d v=%d centre %d: ChainLen %d, V %d", n, v, center, s.ChainLen(), s.V())
				}
				for k := -v; k <= v; k++ {
					i := wrap(center + k)
					if got, want := s.Rel(k), pos(center+k).Sub(pos(center)); got != want {
						t.Fatalf("n=%d v=%d centre %d: Rel(%d) = %v, naive %v", n, v, center, k, got, want)
					}
					if got, want := s.Robot(k), order[i]; got != want {
						t.Fatalf("n=%d v=%d centre %d: Robot(%d) = %d, naive %d", n, v, center, k, got, want)
					}
					away, towards := mask[i]&RunsPlus != 0, mask[i]&RunsMinus != 0
					if k < 0 {
						away, towards = towards, away
					}
					if k == 0 {
						away, towards = false, false
					}
					if s.HasRunAway(k) != away || s.HasRunTowards(k) != towards {
						t.Fatalf("n=%d v=%d centre %d: runs at %d read (%v, %v), naive (%v, %v)",
							n, v, center, k, s.HasRunAway(k), s.HasRunTowards(k), away, towards)
					}
					for _, d := range [2]int{+1, -1} {
						if k+d < -v || k+d > v {
							continue
						}
						if got, want := s.Edge(k, d), grid.EdgeOf(pos(center+k+d).Sub(pos(center+k))); got != want {
							t.Fatalf("n=%d v=%d centre %d: Edge(%d, %+d) = %v, naive %v", n, v, center, k, d, got, want)
						}
					}
				}
				for _, d := range [2]int{+1, -1} {
					for k := 1; k <= v; k++ {
						r := s.Ahead(d, k)
						for j := 1; j <= k; j++ {
							want := grid.EdgeOf(pos(center + j*d).Sub(pos(center + (j-1)*d)))
							if got := r.Next(); got != want {
								t.Fatalf("n=%d v=%d centre %d: ray %+d edge %d = %v, naive %v", n, v, center, d, j, got, want)
							}
							away, towards := r.Runs()
							if away != s.HasRunAway(j*d) || towards != s.HasRunTowards(j*d) {
								t.Fatalf("n=%d v=%d centre %d: ray %+d runs at %d read (%v, %v), snapshot (%v, %v)",
									n, v, center, d, j, away, towards, s.HasRunAway(j*d), s.HasRunTowards(j*d))
							}
						}
					}
				}
			}
		}
	}
}

// TestRayLocality pins the ray's one locality check: opening a ray past
// the viewing path length panics, and so does reading past the offset it
// was opened for, in both directions.
func TestRayLocality(t *testing.T) {
	c := ring(t, 10, 10)
	s := at(c, 0, 11, nil)
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic (non-local rule)", label)
			}
		}()
		f()
	}
	mustPanic("opening a ray beyond V", func() { s.Ahead(+1, 12) })
	mustPanic("opening a backward ray beyond V", func() { s.Ahead(-1, 12) })
	for _, d := range [2]int{+1, -1} {
		r := s.Ahead(d, 3)
		for j := 0; j < 3; j++ {
			r.Next()
		}
		mustPanic("reading past the checked offset", func() { r.Next() })
	}
}

// TestWord pins the word read: byte i+j of the slice lands in byte j of
// the word, for edge codes and run-mask bytes alike, and a word reaching
// past the slice panics.
func TestWord(t *testing.T) {
	b := []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i := 0; i+8 <= len(b); i++ {
		var want uint64
		for j := 7; j >= 0; j-- {
			want = want<<8 | uint64(b[i+j])
		}
		if got := Word(b, i); got != want {
			t.Errorf("Word(b, %d) = %#x, want %#x", i, got, want)
		}
	}
	codes := []grid.EdgeCode{grid.EdgeEast, grid.EdgeNorth, grid.EdgeWest, grid.EdgeSouth, grid.EdgeZero, grid.EdgeOther, grid.EdgeEast, grid.EdgeEast}
	if got, want := Word(codes, 0), uint64(0x0404_0800_0706_0504); got != want {
		t.Errorf("Word(codes, 0) = %#x, want %#x", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("a word past the slice must panic")
		}
	}()
	Word(b, 3)
}

// rayStraight and rayRunsAhead are Straight and RunsAhead read edge by
// edge through a Ray: the references the word reads must equal.
func rayStraight(s *Snapshot, d, k int) bool {
	r := s.Ahead(d, k)
	first := r.Next()
	ok := first.IsUnit()
	for j := 1; j < k; j++ {
		if r.Next() != first {
			ok = false
		}
	}
	return ok
}

func rayRunsAhead(s *Snapshot, d, k int) (away, towards int) {
	r := s.Ahead(d, k)
	for j := 1; j <= k; j++ {
		r.Next()
		a, tw := r.Runs()
		if a && away == 0 {
			away = j
		}
		if tw && towards == 0 {
			towards = j
		}
	}
	return away, towards
}

// TestStraightAndRunsAheadMatchRay holds the word reads to the Ray at
// every centre, direction and window length the view allows, on rings
// with long sides (straight windows inside the ring and across its ends),
// short sides, and chains shorter than the window: under a nil mask, a
// dense random mask, and masks with one run state placed so that it sits
// at every offset in both directions.
func TestStraightAndRunsAheadMatchRay(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	checked, straight := 0, 0
	var chains []*chain.Chain
	for _, dims := range [][2]int{{1, 1}, {3, 2}, {10, 10}, {25, 3}, {40, 1}} {
		chains = append(chains, ring(t, dims[0], dims[1]))
	}
	// A 20x5 ring with a one-cell bump in its bottom side: windows whose
	// first and last edges agree with a jog between them.
	var bumped []grid.Vec
	for x := 0; x <= 20; x++ {
		bumped = append(bumped, grid.V(x, 0))
		if x == 8 {
			bumped = append(bumped, grid.V(8, 1), grid.V(9, 1))
		}
	}
	for y := 1; y <= 5; y++ {
		bumped = append(bumped, grid.V(20, y))
	}
	for x := 19; x >= 0; x-- {
		bumped = append(bumped, grid.V(x, 5))
	}
	for y := 4; y >= 1; y-- {
		bumped = append(bumped, grid.V(0, y))
	}
	c, err := chain.New(bumped)
	if err != nil {
		t.Fatal(err)
	}
	chains = append(chains, c)
	for _, c := range chains {
		n := c.Len()
		dense := make([]uint8, n)
		for i := range dense {
			dense[i] = uint8(rng.Intn(4))
		}
		// One run state at index i meets every centre, so it sits at every
		// offset of some window in both directions; i near the ring's ends
		// puts it in wrapping windows, i inside in windows read in words.
		masks := [][]uint8{nil, dense}
		for _, i := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
			for _, bits := range []uint8{RunsPlus, RunsMinus, RunsPlus | RunsMinus} {
				m := make([]uint8, n)
				m[i] = bits
				masks = append(masks, m)
			}
		}
		for mi, mask := range masks {
			for _, v := range []int{1, 3, 7, 8, 9, 11, 16, 17, 30, n - 1} {
				if v < 1 {
					continue
				}
				for center := 0; center < n; center++ {
					s := at(c, center, v, mask)
					for _, d := range [2]int{+1, -1} {
						for k := 1; k <= v; k++ {
							if mi == 0 {
								got, want := s.Straight(d, k), rayStraight(s, d, k)
								if got != want {
									t.Fatalf("n=%d v=%d centre %d: Straight(%+d, %d) = %v, ray %v", n, v, center, d, k, got, want)
								}
								if got {
									straight++
								}
							}
							a, tw := s.RunsAhead(d, k)
							wa, wt := rayRunsAhead(s, d, k)
							if a != wa || tw != wt {
								t.Fatalf("n=%d v=%d centre %d mask %d: RunsAhead(%+d, %d) = (%d, %d), ray (%d, %d)",
									n, v, center, mi, d, k, a, tw, wa, wt)
							}
							checked++
						}
					}
				}
			}
		}
	}
	if straight == 0 || checked < 100000 {
		t.Fatalf("checked %d windows, %d straight: the battery lost its inputs", checked, straight)
	}
}

// TestStraightAndRunsAheadLocality pins the word reads to the view's
// locality rule: a window beyond V panics, in both directions.
func TestStraightAndRunsAheadLocality(t *testing.T) {
	s := at(ring(t, 30, 30), 40, 11, make([]uint8, 120))
	for _, d := range [2]int{+1, -1} {
		for name, f := range map[string]func(){
			"Straight":  func() { s.Straight(d, 12) },
			"RunsAhead": func() { s.RunsAhead(d, 12) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%+d, 12) beyond V = 11 must panic (non-local rule)", name, d)
					}
				}()
				f()
			}()
		}
	}
}
