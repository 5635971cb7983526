package chain_test

import (
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sim"
)

// TestEdgeCodesNotAllocatedByLinTime pins the lazy allocation of the
// edge-code cache: lintime never looks through a view, so a whole lintime
// gather must leave the cache unallocated, while a paper gather of the
// same chain allocates it.
func TestEdgeCodesNotAllocatedByLinTime(t *testing.T) {
	ref, err := generate.Rectangle(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		strategy core.StrategyName
		want     bool
	}{{core.StrategyLinTime, false}, {core.StrategyPaper, true}} {
		ch := ref.Clone()
		res, err := sim.Gather(ch, sim.Options{Strategy: tc.strategy})
		if err != nil {
			t.Fatalf("%s: %v", tc.strategy, err)
		}
		if res.Rounds == 0 {
			t.Fatalf("%s: gathered in no rounds", tc.strategy)
		}
		if got := chain.EdgeCodesAllocated(ch); got != tc.want {
			t.Errorf("%s gather: edge-code cache allocated = %v, want %v", tc.strategy, got, tc.want)
		}
	}
}
