package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
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
