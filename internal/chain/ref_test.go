package chain

import (
	"math/rand"
	"testing"

	"gridgather/internal/grid"
)

// This file is the differential half of the representation-equivalence
// suite (the golden-trace fixtures in internal/sim are the end-to-end
// half): a deliberately naive slice-based reference chain — the shape of
// the pre-handle implementation, with its restart-from-zero merge scan —
// is driven through the same random mutations as the real ring, and every
// observable (merge count, removed robots, survivor IDs, final
// configuration, bounds) must agree.

// naiveChain is the reference implementation: robots in a plain slice,
// removal by slice shifting, merge resolution by rescanning from index 0
// after every splice. O(n^2), obviously correct.
type naiveChain struct {
	ids []int
	pos []grid.Vec
}

func naiveFrom(c *Chain) *naiveChain {
	nc := &naiveChain{}
	for _, h := range c.Handles() {
		nc.ids = append(nc.ids, c.ID(h))
		nc.pos = append(nc.pos, c.PosOf(h))
	}
	return nc
}

// naiveEvent mirrors MergeEvent with plain IDs.
type naiveEvent struct {
	survivor, removed int
	pos               grid.Vec
}

// resolve is the pre-handle merge resolution, verbatim in spirit: while
// more than two robots remain, find the first co-located neighbour pair
// scanning from index 0, remove the larger ID, restart.
func (nc *naiveChain) resolve() []naiveEvent {
	var events []naiveEvent
	for len(nc.ids) > 2 {
		merged := false
		for i := 0; i < len(nc.ids); i++ {
			j := (i + 1) % len(nc.ids)
			if nc.pos[i] != nc.pos[j] {
				continue
			}
			si, ri := i, j
			if nc.ids[si] > nc.ids[ri] {
				si, ri = ri, si
			}
			events = append(events, naiveEvent{
				survivor: nc.ids[si], removed: nc.ids[ri], pos: nc.pos[si],
			})
			nc.ids = append(nc.ids[:ri], nc.ids[ri+1:]...)
			nc.pos = append(nc.pos[:ri], nc.pos[ri+1:]...)
			merged = true
			break
		}
		if !merged {
			break
		}
	}
	return events
}

// mutate teleports a few robots onto a neighbour's position (creating the
// co-locations merge resolution consumes) or by a random king step, applied
// identically to both representations. It returns the mutated handles — the
// seed set for the targeted resolution. Mutations act below the
// edge-validity level: resolution only reads positions.
func mutate(t *testing.T, rng *rand.Rand, c *Chain, nc *naiveChain) []Handle {
	t.Helper()
	var seeds []Handle
	k := 1 + rng.Intn(5)
	for m := 0; m < k; m++ {
		i := rng.Intn(c.Len())
		h := c.At(i)
		var p grid.Vec
		if rng.Intn(2) == 0 {
			// Land on a chain neighbour: a guaranteed co-location.
			if rng.Intn(2) == 0 {
				p = c.Pos(i + 1)
			} else {
				p = c.Pos(i - 1)
			}
		} else {
			p = c.Pos(i).Add(grid.V(rng.Intn(3)-1, rng.Intn(3)-1))
		}
		c.SetPos(h, p)
		nc.pos[i] = p
		seeds = append(seeds, h)
	}
	return seeds
}

// checkAgainst compares every observable of the ring representation with
// the reference.
func checkAgainst(t *testing.T, trial int, c *Chain, nc *naiveChain) {
	t.Helper()
	if c.Len() != len(nc.ids) {
		t.Fatalf("trial %d: len %d != reference %d", trial, c.Len(), len(nc.ids))
	}
	var wantBounds grid.Box
	for i, h := range c.Handles() {
		if c.ID(h) != nc.ids[i] {
			t.Fatalf("trial %d: id[%d] = %d, reference %d", trial, i, c.ID(h), nc.ids[i])
		}
		if c.PosOf(h) != nc.pos[i] {
			t.Fatalf("trial %d: pos[%d] = %v, reference %v", trial, i, c.PosOf(h), nc.pos[i])
		}
		wantBounds.Include(nc.pos[i])
	}
	if got := c.Bounds(); got != wantBounds {
		t.Fatalf("trial %d: incremental bounds %v, recomputed %v", trial, got, wantBounds)
	}
	checkEdgeCodes(t, trial, c, nc)
}

// checkEdgeCodes compares the edge-code cache with the codes of the
// reference positions' edges at every index.
func checkEdgeCodes(t *testing.T, trial int, c *Chain, nc *naiveChain) {
	t.Helper()
	edges := c.EdgeCodes()
	n := len(nc.pos)
	if len(edges) != n {
		t.Fatalf("trial %d: EdgeCodes has %d entries, reference %d", trial, len(edges), n)
	}
	for i, p := range nc.pos {
		if want := grid.EdgeOf(nc.pos[(i+1)%n].Sub(p)); edges[i] != want {
			t.Fatalf("trial %d: EdgeCodes()[%d] = %v, reference %v", trial, i, edges[i], want)
		}
	}
}

// TestDifferentialResolveMergesAround checks the seeded O(#moved)
// resolution: seeded with exactly the mutated robots it must reach the
// same final configuration and remove the same robots as the reference
// (the event order may differ between position clusters, never within
// one, and survivor choice is order-independent: the cluster minimum
// always survives). The edge-code cache must match the reference after
// every move and every resolution, in clones (which must not carry it)
// and in snapshot round trips too.
func TestDifferentialResolveMergesAround(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	roundTrips := 0
	for trial := 0; trial < 300; trial++ {
		ps := randomClosedWalkPositions(rng, 3+rng.Intn(30))
		c := MustNew(ps)
		nc := naiveFrom(c)
		if trial%2 == 0 {
			c.EdgeCodes() // allocated before any move; odd trials allocate it later
		}
		checkRoundTrip(t, trial, c, nc)
		for round := 0; round < 4; round++ {
			seeds := mutate(t, rng, c, nc)
			if c.edges != nil {
				checkEdgeCodes(t, trial, c, nc) // kept current by SetPos, no splice yet
			}
			want := nc.resolve()
			got := c.AppendResolveMergesAround(nil, seeds)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d events, reference %d", trial, len(got), len(want))
			}
			wantRemoved := map[int]bool{}
			for _, w := range want {
				wantRemoved[w.removed] = true
			}
			for _, ev := range got {
				if !wantRemoved[c.ID(ev.Removed)] {
					t.Fatalf("trial %d: removed %d, not removed by reference", trial, c.ID(ev.Removed))
				}
				if c.ID(ev.Survivor) > c.ID(ev.Removed) {
					t.Fatalf("trial %d: survivor %d has larger ID than removed %d",
						trial, c.ID(ev.Survivor), c.ID(ev.Removed))
				}
			}
			checkAgainst(t, trial, c, nc)
			cp := c.Clone()
			if cp.edges != nil {
				t.Fatalf("trial %d: Clone copied the edge codes", trial)
			}
			checkAgainst(t, trial, cp, nc)
			// Snapshots reject illegal edges, which the mutations may leave.
			if c.CheckEdges() == nil {
				checkRoundTrip(t, trial, c, nc)
				roundTrips++
			}
			if c.Len() > 2 {
				if err := c.CheckNoZeroEdges(); err != nil {
					t.Fatalf("trial %d: seeded resolution left co-located neighbours: %v", trial, err)
				}
			}
			if c.Len() <= 2 {
				break
			}
		}
	}
	if roundTrips == 0 {
		t.Error("no mutated chain was legal enough for a snapshot round trip")
	}
}

// checkRoundTrip restores c from its snapshot and compares the restored
// chain, edge codes included, with the reference. A restored chain starts
// without the cache, like a clone.
func checkRoundTrip(t *testing.T, trial int, c *Chain, nc *naiveChain) {
	t.Helper()
	rt, err := FromSnapshot(c.Snapshot())
	if err != nil {
		t.Fatalf("trial %d: snapshot round trip: %v", trial, err)
	}
	if rt.edges != nil {
		t.Fatalf("trial %d: FromSnapshot built the edge codes eagerly", trial)
	}
	checkAgainst(t, trial, rt, nc)
}

// TestScratchSemantics pins the generation-clearing table the hot path
// relies on (DESIGN.md §6): Reset is O(1), Keys preserves insertion order,
// Delete hides without unlisting.
func TestScratchSemantics(t *testing.T) {
	var s Scratch[int]
	s.Reset(8)
	if s.Len() != 0 || s.Has(3) {
		t.Fatal("fresh scratch must be empty")
	}
	s.Set(3, 30)
	s.Set(5, 50)
	s.Set(3, 31) // overwrite: no duplicate key
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if v, ok := s.Get(3); !ok || v != 31 {
		t.Fatalf("Get(3) = %d,%v", v, ok)
	}
	if got := s.Keys(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Keys = %v, want [3 5]", got)
	}
	s.Delete(3)
	if s.Has(3) || s.Len() != 1 {
		t.Fatal("Delete must hide the entry")
	}
	if got := s.Keys(); len(got) != 2 {
		t.Fatal("Delete must not unlist the key (callers filter with Has)")
	}
	s.Set(3, 32) // revive after Delete: in place, no duplicate key
	if v, ok := s.Get(3); !ok || v != 32 || s.Len() != 2 {
		t.Fatalf("revived entry wrong: %d,%v len=%d", v, ok, s.Len())
	}
	if got := s.Keys(); len(got) != 2 {
		t.Fatalf("Set after Delete must not duplicate the key: %v", got)
	}
	s.Reset(8)
	if s.Has(5) || s.Len() != 0 || len(s.Keys()) != 0 {
		t.Fatal("Reset must clear in O(1)")
	}
	if _, ok := s.Get(-1); ok {
		t.Fatal("negative handle must read as absent")
	}
	if s.Has(Handle(100)) {
		t.Fatal("out-of-range handle must read as absent")
	}
}
