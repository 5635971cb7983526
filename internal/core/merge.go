package core

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
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
	spikes, uturns := appendMergeScan(nil, nil, ch, maxLen, 0, ch.Len())
	return append(spikes, uturns...)
}

// appendMergeScan is the merge-pattern scan: it appends the patterns whose
// first black robot lies at chain index [lo, hi) to spikes (k=1 direction
// reversals) and uturns (straight k>=2 runs flanked by an anti-parallel
// perpendicular edge pair), each in ascending chain order. The engine runs
// it per chunk (KernelMergeScan); DetectMerges and MergePlan.Plan run it
// over [0, n).
//
// A U-turn starting near hi is scanned past it, so a pattern straddling a
// chunk boundary belongs to the chunk holding its first black. The probe
// caps at maxLen edges: a longer run is rejected whatever its true extent,
// which bounds that overlap at O(maxLen) without changing any outcome.
func appendMergeScan(spikes, uturns []MergePattern, ch *chain.Chain, maxLen, lo, hi int) ([]MergePattern, []MergePattern) {
	n := ch.Len()
	if n < 3 || lo >= hi {
		return spikes, uturns
	}
	// Read positions straight from the ring order and the flat position
	// store, as view.Snapshot does: one array lookup per robot, streamed.
	order, pos := ch.Handles(), ch.PosStore()
	at := func(i int) grid.Vec { return pos[order[chain.WrapIndex(i, n)]] }
	p := at(lo)
	prev := p.Sub(at(lo - 1))
	for i := lo; i < hi; i++ {
		q := at(i + 1)
		cur := q.Sub(p)
		if prev.IsAxisUnit() && cur == prev.Neg() {
			spikes = append(spikes, MergePattern{FirstBlack: i, Len: 1, Hop: cur})
		}
		if cur != prev {
			// Edge i starts a maximal straight run (a closed chain has at
			// least two direction changes, so the scan always terminates).
			// after is the edge that ends the run; it is read only when
			// the run ends short of maxLen.
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
			// l == maxLen means k = l+1 > maxLen whatever the run's true
			// length; below it l is the exact maximal run length.
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
	plan.Patterns, plan.uturns = appendMergeScan(plan.Patterns[:0], plan.uturns[:0], ch, maxLen, 0, ch.Len())
	plan.Patterns = append(plan.Patterns, plan.uturns...)
	return plan.finish(ch, true)
}

// finish turns the detected plan.Patterns into the executable plan:
// spike-priority suppression, the participant set, and the combined
// per-robot hops. It is the sequential tail shared by Plan and the
// engine's chunked detection kernels (Algorithm.CombineMergePlan), which
// fill plan.Patterns themselves. The algorithm's fault-injection
// self-tests (FaultSkipSpikePriority) switch spikePriority off to prove
// the conformance oracle notices.
func (plan *MergePlan) finish(ch *chain.Chain, spikePriority bool) error {
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
		if pat.Len > 1 && spikePriority && plan.spikeWhites.Len() > 0 {
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
