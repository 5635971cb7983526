package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/sched"
	"gridgather/internal/view"
)

// The look phase reads the chain a word at a time where it is straight:
// the merge and start scans skip straight stretches eight edges per
// compare (nextTurn), and scanLine decides a straight window in front of a
// run from two word compares of the edge codes and two of the run mask.
// The references below are the same scans reading one byte per edge and
// visiting every index, as they read before the skips.

// byteMergeScan is appendMergeScan reading one edge code per step.
func byteMergeScan(spikes, uturns []MergePattern, edges []grid.EdgeCode, maxLen, lo, hi int) ([]MergePattern, []MergePattern) {
	n := len(edges)
	if n < 3 || lo >= hi {
		return spikes, uturns
	}
	prev := edges[chain.WrapIndex(lo-1, n)]
	for i := lo; i < hi; i++ {
		cur := edges[i]
		if prev.IsUnit() && cur == prev.Neg() {
			spikes = append(spikes, MergePattern{FirstBlack: i, Len: 1, Hop: cur.Vec()})
		}
		if cur != prev {
			l := 1
			var after grid.EdgeCode
			for l < maxLen {
				if after = edges[chain.WrapIndex(i+l, n)]; after != cur {
					break
				}
				l++
			}
			if k := l + 1; l < maxLen && k+2 <= n {
				if after.IsUnit() && after == prev.Neg() && after.Perp(cur) {
					uturns = append(uturns, MergePattern{FirstBlack: i, Len: k, Hop: after.Vec()})
				}
			}
		}
		prev = cur
	}
	return spikes, uturns
}

// skipCodeStrings returns edge-code strings built to stress the skips:
// rings straight but for one edge (a reversal or a jog, at every index),
// two long straight stretches meeting anywhere (so one crosses the ring's
// end), and random strings of long and short straight groups.
func skipCodeStrings(rng *rand.Rand) [][]grid.EdgeCode {
	units := []grid.EdgeCode{grid.EdgeEast, grid.EdgeNorth, grid.EdgeWest, grid.EdgeSouth}
	var out [][]grid.EdgeCode
	for _, n := range []int{3, 5, 8, 9, 12, 17, 24, 33} {
		for p := 0; p < n; p++ {
			for _, odd := range []grid.EdgeCode{grid.EdgeWest, grid.EdgeNorth} {
				s := make([]grid.EdgeCode, n)
				for i := range s {
					s[i] = grid.EdgeEast
				}
				s[p] = odd
				out = append(out, s)
			}
			// Two straight stretches, the second starting at p: rotating
			// the split moves the first one across the ring's end.
			s := make([]grid.EdgeCode, n)
			for i := range s {
				s[i] = grid.EdgeEast
				if (i-p+n)%n < n/2 {
					s[i] = grid.EdgeNorth
				}
			}
			out = append(out, s)
		}
	}
	for k := 0; k < 60; k++ {
		var s []grid.EdgeCode
		for len(s) < 8+rng.Intn(80) {
			c := units[rng.Intn(4)]
			if rng.Intn(12) == 0 {
				c = []grid.EdgeCode{grid.EdgeZero, grid.EdgeOther}[rng.Intn(2)]
			}
			for run := 1 + rng.Intn(14); run > 0; run-- {
				s = append(s, c)
			}
		}
		out = append(out, s)
	}
	return out
}

// mergeScanRanges returns the [lo, hi) ranges a merge-scan comparison
// covers on a ring of n edges: every range when n is small, and otherwise
// every range shorter than a word plus a few chunkings.
func mergeScanRanges(n int) [][2]int {
	var out [][2]int
	if n <= 24 {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				out = append(out, [2]int{lo, hi})
			}
		}
		return out
	}
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < lo+8 && hi <= n; hi++ {
			out = append(out, [2]int{lo, hi})
		}
	}
	for _, p := range []int{1, 2, 3, 5} {
		for w := 0; w < p; w++ {
			out = append(out, [2]int{w * n / p, (w + 1) * n / p})
		}
	}
	return out
}

// checkMergeScanSkips holds appendMergeScan to byteMergeScan on one edge
// string for every detection length from 1 to V-1 over mergeScanRanges.
func checkMergeScanSkips(t *testing.T, edges []grid.EdgeCode, label string) {
	t.Helper()
	for maxLen := 1; maxLen < DefaultViewingPathLength; maxLen++ {
		for _, r := range mergeScanRanges(len(edges)) {
			gotS, gotU := appendMergeScan(nil, nil, edges, maxLen, r[0], r[1])
			wantS, wantU := byteMergeScan(nil, nil, edges, maxLen, r[0], r[1])
			if fmt.Sprint(gotS, gotU) != fmt.Sprint(wantS, wantU) {
				t.Fatalf("%s maxLen=%d [%d,%d): merge scan %v %v, byte scan %v %v\nedges %v",
					label, maxLen, r[0], r[1], gotS, gotU, wantS, wantU, edges)
			}
		}
	}
}

// TestMergeScanSkipsMatchByteScan holds the word-skipping merge scan to
// the byte scan on the skip-stressing code strings, and to the byte scan,
// the position-based scan (refMergeScan) and the edge-run reference
// (refDetectMerges) on real chains whose long sides cross the ring's end:
// rectangles rotated by every offset, thin and square.
func TestMergeScanSkipsMatchByteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i, s := range skipCodeStrings(rng) {
		checkMergeScanSkips(t, s, fmt.Sprintf("string %d", i))
	}
	for _, dims := range [][2]int{{13, 2}, {20, 1}, {9, 9}} {
		base := squareRect(dims[0], dims[1])
		for rot := 0; rot < len(base); rot += 3 {
			c := mustChain(t, append(append([]grid.Vec{}, base[rot:]...), base[:rot]...)...)
			label := fmt.Sprintf("%dx%d rotated %d", dims[0], dims[1], rot)
			checkMergeScanSkips(t, c.EdgeCodes(), label)
			pos := c.Positions()
			for maxLen := 1; maxLen < DefaultViewingPathLength; maxLen++ {
				gotS, gotU := appendMergeScan(nil, nil, c.EdgeCodes(), maxLen, 0, c.Len())
				wantS, wantU := refMergeScan(nil, nil, pos, maxLen, 0, c.Len())
				if fmt.Sprint(gotS, gotU) != fmt.Sprint(wantS, wantU) {
					t.Fatalf("%s maxLen=%d: merge scan %v %v, position scan %v %v", label, maxLen, gotS, gotU, wantS, wantU)
				}
				if got, want := DetectMerges(c, maxLen), refDetectMerges(c, maxLen); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s maxLen=%d: DetectMerges %v, edge-run reference %v", label, maxLen, got, want)
				}
			}
		}
	}
}

// squareRect returns the boundary ring of a w x h rectangle (w, h >= 1),
// counter-clockwise from the origin.
func squareRect(w, h int) []grid.Vec {
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

// startHop is one entry of the start-hop table, in insertion order.
type startHop struct {
	robot chain.Handle
	hop   grid.Vec
}

// byteStartScan is KernelStartScan visiting every index, with the two-run
// cap read from the runs themselves (refRunCount) rather than the ring
// count. capped counts the starts the cap refused.
func byteStartScan(a *Algorithm, lo, hi int) (pending []pendingStart, hops []startHop, capped int) {
	var s view.Snapshot
	edges, order := a.ch.EdgeCodes(), a.ch.Handles()
	for i := lo; i < hi; i++ {
		if !activeAt(a.active, i) {
			continue
		}
		r := order[i]
		if a.plan.Participant(r) {
			continue
		}
		view.Over(&s, edges, order, i, a.cfg.ViewingPathLength, a.runMask)
		spec, ok := DetectStart(&s)
		if !ok {
			continue
		}
		if int(refRunCount(a, r))+len(spec.Dirs) > 2 {
			capped++
			continue
		}
		for _, dir := range spec.Dirs {
			pending = append(pending, pendingStart{robot: r, idx: i, dir: dir, kind: spec.Kind, pair: -1})
		}
		if !spec.Hop.IsZero() {
			hops = append(hops, startHop{r, spec.Hop})
		}
	}
	return pending, hops, capped
}

// kernelStarts runs KernelStartScan over [lo, hi) and returns its output.
func kernelStarts(a *Algorithm, lo, hi int) ([]pendingStart, []startHop) {
	a.KernelStartScan(0, lo, hi)
	var hops []startHop
	for _, r := range a.scratch.startHops.Keys() {
		h, _ := a.scratch.startHops.Get(r)
		hops = append(hops, startHop{r, h})
	}
	return append([]pendingStart(nil), a.scratch.pending...), hops
}

// TestStartScanMatchesByteScan holds the word-skipping start scan to the
// byte scan on the look-phase state of seeded paper gathers (squares,
// rotated rectangles, spirals, polyominoes) under FSYNC and random:p=0.5
// activation: at every split of the ring into [0, s) and [s, n) every
// round, and over every [lo, hi) range every sixth round. The starts
// found and the insertion order of the corner-cut hops must match, with
// the two-run cap read from the ring counts.
func TestStartScanMatchesByteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var inputs []labeledChain
	add := func(label string, c *chain.Chain, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		inputs = append(inputs, labeledChain{label, c})
	}
	add("square", mustChain(t, squareRing(10)...), nil)
	base := squareRect(14, 3)
	add("rotated", mustChain(t, append(append([]grid.Vec{}, base[20:]...), base[:20]...)...), nil)
	c, err := generate.Spiral(4)
	add("spiral", c, err)
	c, err = generate.RandomPolyomino(30, rng)
	add("polyomino", c, err)
	starts, capped := 0, 0
	for _, in := range inputs {
		for _, sc := range lookScheds {
			label := in.label + "/" + sc.String()
			alg, err := New(in.c.Clone(), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.New(sc)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 60 && !alg.Gathered(); round++ {
				n := alg.Chain().Len()
				var set []bool
				if !s.FullySync() {
					set = make([]bool, n)
					s.Activate(round, set)
				}
				alg.active = set
				alg.KernelMergeScan(0, 0, n)
				if err := alg.CombineMergePlan(); err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo <= n; lo++ {
					for hi := lo; hi <= n; hi++ {
						if round%6 != 0 && lo != 0 && hi != n {
							continue // every range every sixth round
						}
						gotP, gotH := kernelStarts(alg, lo, hi)
						wantP, wantH, c := byteStartScan(alg, lo, hi)
						if !slices.Equal(gotP, wantP) || !slices.Equal(gotH, wantH) {
							t.Fatalf("%s round %d [%d,%d): start scan %+v %+v, byte scan %+v %+v",
								label, round, lo, hi, gotP, gotH, wantP, wantH)
						}
						if lo == 0 && hi == n {
							starts += len(wantP)
							capped += c
						}
					}
				}
				if _, err := alg.StepActivated(set); err != nil {
					t.Fatalf("%s round %d: %v", label, round, err)
				}
			}
		}
	}
	t.Logf("%d starts found, %d refused by the two-run cap", starts, capped)
	if starts == 0 || capped == 0 {
		t.Fatalf("the battery found %d starts and %d capped ones: it lost its inputs", starts, capped)
	}
}

// TestScanLineMatchesParser holds scanLine, whose straight windows are
// decided in word compares, to the byte parser (parseLine) at every
// centre, in both directions, for maxEdges below 8, equal to 8, 11 and
// n-1, under views of exactly maxEdges (whose windows wrap only near the
// ring's ends) and of n-1 (whose windows always wrap), with runsTo 0, the
// passing trigger and maxEdges. The run masks are the gathers' own, masks
// with one run state placed so that it sits at every offset in both
// directions, and one with runs both ways.
func TestScanLineMatchesParser(t *testing.T) {
	var inputs []labeledChain
	inputs = append(inputs, labeledChain{"rect", mustChain(t, squareRect(16, 3)...)})
	inputs = append(inputs, labeledChain{"square", mustChain(t, squareRing(9)...)})
	c, err := generate.Spiral(4)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, labeledChain{"spiral", c})
	checked, straight := 0, 0
	var l, want lineScan
	check := func(label string, ch *chain.Chain, mask []uint8) {
		n := ch.Len()
		for _, maxEdges := range []int{1, 2, 3, 5, 7, 8, 11, n - 1} {
			if maxEdges < 1 || maxEdges > n-1 {
				continue
			}
			for _, v := range []int{maxEdges, n - 1} {
				for center := 0; center < n; center++ {
					var s view.Snapshot
					view.At(&s, ch, center, v, mask)
					for _, d := range [2]int{+1, -1} {
						for _, runsTo := range []int{0, min(PassingTriggerDistance, maxEdges), maxEdges} {
							scanLine(&s, d, maxEdges, runsTo, &l)
							parseLine(&s, d, maxEdges, runsTo, &want)
							if l != want {
								t.Fatalf("%s V=%d centre %d d=%+d maxEdges=%d runsTo=%d: scanLine %+v, parser %+v",
									label, v, center, d, maxEdges, runsTo, l, want)
							}
							if maxEdges >= 2 && s.Straight(d, maxEdges) {
								straight++
							}
							checked++
						}
					}
				}
			}
		}
	}
	for _, in := range inputs {
		alg, err := New(in.c, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40 && !alg.Gathered(); round++ {
			ch := alg.Chain()
			if round%3 == 0 {
				check(fmt.Sprintf("%s round %d", in.label, round), ch, alg.runMask[:ch.Len()])
			}
			if round%30 == 0 {
				// One run state at index i meets every centre, so it sits
				// at every offset of some window in both directions; i
				// near the ring's ends puts it in wrapping windows, i
				// inside in windows read in words. The last mask carries
				// runs both ways, for the first-of-each-kind rule.
				n := ch.Len()
				for _, i := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
					for _, bits := range []uint8{view.RunsPlus, view.RunsMinus} {
						mask := make([]uint8, n)
						mask[i] = bits
						check(fmt.Sprintf("%s round %d run %02b at %d", in.label, round, bits, i), ch, mask)
					}
				}
				mask := make([]uint8, n)
				for i := 0; i < n; i += 5 {
					mask[i] = uint8(1 + i%3)
				}
				check(fmt.Sprintf("%s round %d mixed runs", in.label, round), ch, mask)
			}
			if _, err := alg.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if straight == 0 || checked < 100000 {
		t.Fatalf("compared %d scans, %d straight: the battery lost its inputs", checked, straight)
	}
}
