package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
)

// refDetectMerges is the test-only reference for the merge scan
// (appendMergeScan): the pattern definition read straight off the chain's
// edge-run decomposition. Spikes are direction reversals at single robots;
// U-turns are maximal straight edge runs of k-1 edges (k robots, 2 <= k <=
// maxLen) flanked by an anti-parallel perpendicular edge pair. It measures
// every run to its true length instead of capping the probe at maxLen, and
// it knows nothing about chunks, so it is an independent witness for the
// kernel range tests and the DetectMerges differential below.
func refDetectMerges(ch *chain.Chain, maxLen int) []MergePattern {
	n := ch.Len()
	if n < 3 {
		return nil
	}
	var patterns []MergePattern
	for i := 0; i < n; i++ {
		in := ch.Edge(i - 1) // white1 -> black
		out := ch.Edge(i)    // black -> white2
		if in.IsAxisUnit() && out == in.Neg() {
			patterns = append(patterns, MergePattern{FirstBlack: i, Len: 1, Hop: out})
		}
	}
	for _, run := range ch.EdgeRuns() {
		k := run.Len + 1 // robots in the straight segment
		if k < 2 || k > maxLen || k+2 > n {
			continue
		}
		before := ch.Edge(run.Start - 1)      // white1 -> first black
		after := ch.Edge(run.Start + run.Len) // last black -> white2
		if after.IsAxisUnit() && after == before.Neg() && after.Perp(run.Dir) {
			patterns = append(patterns, MergePattern{FirstBlack: run.Start, Len: k, Hop: after})
		}
	}
	return patterns
}

// refMergeScan is the merge scan as it read positions before the look
// phase read edge codes: appendMergeScan's loop over the ring-ordered
// positions pos, with each edge rebuilt by subtracting two positions.
func refMergeScan(spikes, uturns []MergePattern, pos []grid.Vec, maxLen, lo, hi int) ([]MergePattern, []MergePattern) {
	n := len(pos)
	if n < 3 || lo >= hi {
		return spikes, uturns
	}
	at := func(i int) grid.Vec { return pos[((i%n)+n)%n] }
	p := at(lo)
	prev := p.Sub(at(lo - 1))
	for i := lo; i < hi; i++ {
		q := at(i + 1)
		cur := q.Sub(p)
		if prev.IsAxisUnit() && cur == prev.Neg() {
			spikes = append(spikes, MergePattern{FirstBlack: i, Len: 1, Hop: cur})
		}
		if cur != prev {
			l, end := 1, q
			var after grid.Vec
			for l < maxLen {
				next := at(i + l + 1)
				if after = next.Sub(end); after != cur {
					break
				}
				end = next
				l++
			}
			if k := l + 1; l < maxLen && k+2 <= n {
				if after.IsAxisUnit() && after == prev.Neg() && after.Perp(cur) {
					uturns = append(uturns, MergePattern{FirstBlack: i, Len: k, Hop: after})
				}
			}
		}
		prev, p = cur, q
	}
	return spikes, uturns
}

// checkMergeScan holds the coded merge scan to refMergeScan chunk by chunk,
// for one, two and five chunks and detection lengths 1, 3 and V-1.
func checkMergeScan(t testing.TB, c *chain.Chain, label string) {
	t.Helper()
	pos := c.Positions()
	n := len(pos)
	for _, maxLen := range []int{1, 3, DefaultViewingPathLength - 1} {
		for _, p := range []int{1, 2, 5} {
			for w := 0; w < p; w++ {
				lo, hi := w*n/p, (w+1)*n/p
				gotS, gotU := appendMergeScan(nil, nil, c.EdgeCodes(), maxLen, lo, hi)
				wantS, wantU := refMergeScan(nil, nil, pos, maxLen, lo, hi)
				if fmt.Sprint(gotS, gotU) != fmt.Sprint(wantS, wantU) {
					t.Fatalf("%s: merge scan maxLen=%d chunk [%d,%d) = %v %v, position reference %v %v",
						label, maxLen, lo, hi, gotS, gotU, wantS, wantU)
				}
			}
		}
	}
}

// samePatterns fails the test unless got equals want element by element.
func samePatterns(t *testing.T, label string, got, want []MergePattern) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d patterns, want %d: %+v vs %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s pattern %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestDetectMergesMatchesReference holds the one merge scan to the
// edge-run reference on every generator family, at several sizes and
// seeds, for every detection length from 1 to V-1 — the pattern order
// included, since the plan tail and CombineMergePlan depend on it. A
// reused MergePlan must report the same pattern list.
func TestDetectMergesMatchesReference(t *testing.T) {
	maxV := DefaultConfig().ViewingPathLength - 1
	plan := NewMergePlan()
	checked := 0
	for _, name := range generate.Names() {
		for _, size := range []int{8, 24, 96, 300} {
			for seed := int64(0); seed < 3; seed++ {
				ch, err := generate.Named(name, size, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/%d/%d: %v", name, size, seed, err)
				}
				for maxLen := 1; maxLen <= maxV; maxLen++ {
					label := fmt.Sprintf("%s n=%d seed=%d maxLen=%d", name, ch.Len(), seed, maxLen)
					want := refDetectMerges(ch, maxLen)
					samePatterns(t, label, DetectMerges(ch, maxLen), want)
					if err := plan.Plan(ch, maxLen); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					samePatterns(t, label+" (MergePlan)", plan.Patterns, want)
					checked += len(want)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no merge pattern in the whole battery: the differential checked nothing")
	}
}
