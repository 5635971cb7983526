package core

import (
	"fmt"
	"math/bits"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// MergePattern is one instance of the paper's merge operation (Fig 2): a
// straight "black" subchain of k robots flanked by two "white" chain
// neighbours displaced by the same perpendicular unit vector. All blacks
// hop by that vector; afterwards the outermost blacks coincide with the
// whites and the chain is shortened.
//
// In edge terms the pattern is a U-turn: the edge entering the first black
// is -Hop, the k-1 interior edges are straight, and the edge leaving the
// last black is +Hop. k = 1 degenerates to a single direction reversal
// (Fig 2 "length 1": the two whites coincide).
type MergePattern struct {
	// FirstBlack is the chain index of the first black robot; the blacks
	// are FirstBlack .. FirstBlack+Len-1 (cyclic).
	FirstBlack int
	// Len is k, the number of black robots.
	Len int
	// Hop is the perpendicular unit vector all blacks hop by (towards the
	// whites).
	Hop grid.Vec
}

// WhiteBefore returns the chain index of the white robot preceding the
// blacks.
func (p MergePattern) WhiteBefore() int { return p.FirstBlack - 1 }

// WhiteAfter returns the chain index of the white robot following the
// blacks.
func (p MergePattern) WhiteAfter() int { return p.FirstBlack + p.Len }

// DetectMerges finds every merge pattern currently present on the chain
// with black length at most maxLen: all spikes in ascending chain order,
// then all U-turns in ascending chain order. maxLen must not exceed the
// viewing path length minus one: a pattern spans k+2 robots and every
// participant must see all of them (paper §3.1), which is exactly
// k+1 <= V.
//
// The scan is global for efficiency, but it is information-equivalent to
// each robot's local detection: every pattern it reports lies within the
// view of each of its participants.
func DetectMerges(ch *chain.Chain, maxLen int) []MergePattern {
	spikes, uturns := appendMergeScan(nil, nil, ch.EdgeCodes(), maxLen, 0, ch.Len())
	return append(spikes, uturns...)
}

// appendMergeScan is the merge-pattern scan over a chain's edge codes
// (chain.EdgeCodes, edges[i] the edge from robot i to robot i+1): it
// appends the patterns whose first black robot lies at chain index
// [lo, hi) to spikes (k=1 direction reversals) and uturns (straight k>=2
// runs flanked by an anti-parallel perpendicular edge pair), each in
// ascending chain order. The engine runs it through KernelMergeScan;
// DetectMerges and MergePlan.Plan run it over [0, n).
//
// A U-turn starting near hi is scanned past it, so a pattern straddling a
// range boundary belongs to the range holding its first black. The probe
// caps at maxLen edges: a longer run is rejected whatever its true extent,
// which bounds that overlap at O(maxLen) without changing any outcome.
//
// Both patterns begin where the edge code changes (a spike reverses it, a
// U-turn's run differs from the edge before it), so the scan moves from
// one change to the next: a run's probe, eight edges per compare wherever
// it does not wrap the ring (nextTurn), tells where the next one is, and
// a straight stretch longer than the probe is skipped the same way.
func appendMergeScan(spikes, uturns []MergePattern, edges []grid.EdgeCode, maxLen, lo, hi int) ([]MergePattern, []MergePattern) {
	n := len(edges)
	if n < 3 || lo >= hi {
		return spikes, uturns
	}
	// cur is edge i, prev edge i-1.
	prev := edges[chain.WrapIndex(lo-1, n)]
	for i := lo; i < hi; {
		cur := edges[i]
		if cur == prev {
			// Inside a straight stretch (at lo, or past a run the probe
			// capped): resume where it ends, with prev still its edge.
			i = nextTurn(edges, i+1, hi)
			continue
		}
		if prev.IsUnit() && cur == prev.Neg() {
			spikes = append(spikes, MergePattern{FirstBlack: i, Len: 1, Hop: cur.Vec()})
		}
		// Edge i starts a maximal straight run (a closed chain has at least
		// two direction changes, so the probe always terminates). l is its
		// length capped at maxLen, and after the edge that ends it, read
		// only when the run ends short of maxLen. A run of one edge, the
		// common case on a tangled chain, costs one byte read.
		l := 1
		var after grid.EdgeCode
		if end := i + maxLen; end <= n {
			j := i + 1
			if j < end && edges[j] == cur {
				j = nextTurn(edges, j+1, end)
			}
			if l = j - i; l < maxLen {
				after = edges[j]
			}
		} else {
			for l < maxLen {
				if after = edges[chain.WrapIndex(i+l, n)]; after != cur {
					break
				}
				l++
			}
		}
		// l == maxLen means k = l+1 > maxLen whatever the run's true
		// length; below it l is the exact maximal run length.
		if k := l + 1; l < maxLen && k+2 <= n {
			if after.IsUnit() && after == prev.Neg() && after.Perp(cur) {
				uturns = append(uturns, MergePattern{FirstBlack: i, Len: k, Hop: after.Vec()})
			}
		}
		// The run's other edges repeat cur, so no pattern starts there:
		// the scan goes on where the probe stopped.
		prev = cur
		i += l
	}
	return spikes, uturns
}

// nextTurn returns the first index j in [i, end) at which the edge code
// changes, edges[j] != edges[j-1], or end when the stretch is straight to
// there (1 <= i, end <= len(edges)). It compares the words at edges[j:]
// and edges[j-1:], eight edges per compare, and jumps to the first byte
// that differs; the last edges before end are read one by one.
func nextTurn(edges []grid.EdgeCode, i, end int) int {
	for ; i+8 <= end; i += 8 {
		if x := view.Word(edges, i) ^ view.Word(edges, i-1); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < end && edges[i] == edges[i-1] {
		i++
	}
	return i
}

// MergePlan aggregates the simultaneous execution of all detected merge
// patterns in one round: the hop of every black robot (summed across its at
// most two patterns, one per axis — this is the diagonal hop of Fig 3(b))
// and the participant set (blacks and whites), whose members suspend run
// operations and whose runs terminate (Table 1.3).
//
// Spike priority (reconstruction decision, DESIGN.md §3.1): in degenerate
// doubled configurations every pattern's whites can simultaneously be
// blacks of another pattern, so all merge hops miss their whites and the
// configuration oscillates — a case the paper's overlap discussion (Fig 3)
// does not cover. A spike (k = 1, coincident whites) succeeds whenever its
// whites hold still; therefore spikes always execute and any straight
// pattern whose blacks include a spike's whites is suppressed for the
// round. Spike whites are then provably static (they cannot be blacks of
// an executing pattern, and all-spike chains are already gathered), so
// every round containing a spike performs a merge.
type MergePlan struct {
	// Patterns are all detected patterns; Executing the subset performing
	// hops this round (Suppressed counts the difference).
	Patterns   []MergePattern
	Executing  []MergePattern
	Suppressed int

	// hops and participants are flat per-handle tables with generation
	// clearing (chain.Scratch), replacing the pointer-keyed maps of the
	// earlier representation; read them through Hop / Participant.
	hops         chain.Scratch[grid.Vec]
	participants chain.Scratch[struct{}]

	// Reused scratch (valid only during Plan): spike whites of the current
	// round and the scan's U-turn list. Keeping them here lets a per-round
	// caller replan every round without allocating.
	spikeWhites chain.Scratch[struct{}]
	uturns      []MergePattern
}

// NewMergePlan returns an empty plan whose Plan method can be called once
// per round, reusing all internal storage.
func NewMergePlan() *MergePlan {
	return &MergePlan{}
}

// Hop returns the combined merge hop of the robot with handle h, if it is
// a black of an executing pattern this round.
func (p *MergePlan) Hop(h chain.Handle) (grid.Vec, bool) { return p.hops.Get(h) }

// HopHandles returns the hopping robots in pattern order (deterministic).
// The slice is shared scratch, valid until the next Plan call.
func (p *MergePlan) HopHandles() []chain.Handle { return p.hops.Keys() }

// Participant reports whether the robot with handle h takes part in any
// detected pattern (black or white) this round.
func (p *MergePlan) Participant(h chain.Handle) bool { return p.participants.Has(h) }

// Empty reports whether no merge is possible anywhere on the chain (the
// chain is a "Mergeless Chain" for the configured detection length).
func (p *MergePlan) Empty() bool { return len(p.Patterns) == 0 }

// Plan detects all patterns, applies the spike-priority rule, and combines
// the executing patterns' hops, reusing the plan's tables and slices
// (cleared first); the contents are valid until the next Plan call. It
// returns an error if two executing patterns assign conflicting hops along
// the same axis to one robot, which the pattern geometry rules out; the
// check guards the implementation, not the model.
func (plan *MergePlan) Plan(ch *chain.Chain, maxLen int) error {
	plan.Patterns, plan.uturns = appendMergeScan(plan.Patterns[:0], plan.uturns[:0], ch.EdgeCodes(), maxLen, 0, ch.Len())
	plan.Patterns = append(plan.Patterns, plan.uturns...)
	return plan.finish(ch)
}

// finish turns the detected plan.Patterns into the executable plan:
// spike-priority suppression, the participant set, and the combined
// per-robot hops. It is the tail shared by Plan and the engine's
// Algorithm.CombineMergePlan, which fills plan.Patterns itself.
func (plan *MergePlan) finish(ch *chain.Chain) error {
	plan.Executing = plan.Executing[:0]
	plan.Suppressed = 0
	nh := ch.NumHandles()
	plan.hops.Reset(nh)
	plan.participants.Reset(nh)
	plan.spikeWhites.Reset(nh)
	for _, pat := range plan.Patterns {
		if pat.Len == 1 {
			plan.spikeWhites.Set(ch.At(pat.WhiteBefore()), struct{}{})
			plan.spikeWhites.Set(ch.At(pat.WhiteAfter()), struct{}{})
		}
	}
	for _, pat := range plan.Patterns {
		plan.participants.Set(ch.At(pat.WhiteBefore()), struct{}{})
		plan.participants.Set(ch.At(pat.WhiteAfter()), struct{}{})
		for j := 0; j < pat.Len; j++ {
			plan.participants.Set(ch.At(pat.FirstBlack+j), struct{}{})
		}
		if pat.Len > 1 && plan.spikeWhites.Len() > 0 {
			tainted := false
			for j := 0; j < pat.Len; j++ {
				if plan.spikeWhites.Has(ch.At(pat.FirstBlack + j)) {
					tainted = true
					break
				}
			}
			if tainted {
				plan.Suppressed++
				continue
			}
		}
		plan.Executing = append(plan.Executing, pat)
		for j := 0; j < pat.Len; j++ {
			h := ch.At(pat.FirstBlack + j)
			prev, _ := plan.hops.Get(h)
			if (pat.Hop.X != 0 && prev.X != 0) || (pat.Hop.Y != 0 && prev.Y != 0) {
				return fmt.Errorf("core: conflicting merge hops %v and %v on robot %d", prev, pat.Hop, ch.ID(h))
			}
			plan.hops.Set(h, prev.Add(pat.Hop))
		}
	}
	return nil
}
