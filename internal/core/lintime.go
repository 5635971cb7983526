package core

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// LinTime is the linear-time contraction strategy, the closed-chain
// successor line the strategy arena exists for (Abshoff et al.,
// arXiv:1501.04877 ports the flow to open grid chains; the asymptotically
// optimal variant of arXiv:1602.03303 is the next registry slot). Every
// round, each activated robot clamps its position into the current
// bounding box shrunk by one on every side whose span is at least two;
// co-located chain neighbours then merge, exactly as in the paper's model.
//
// Under FSYNC no conflict handling is needed: per-coordinate clamping is
// 1-Lipschitz and identical for equal coordinates, so when both endpoints
// of an axis-unit edge apply it, the edge stays an axis unit or collapses
// to zero. FSYNC rounds therefore clamp every robot with no guard, which
// equals running the edge-conflict fixpoint with everyone awake and costs
// less. Under partial activation that argument breaks — a robot clamping
// perpendicular to its edge while the neighbour sleeps would stretch the
// edge diagonally — so those rounds send the activated robots' clamp hops
// through the shared fixpoint (edgeGuard, DESIGN.md §3.6).
//
// The bounding box never grows (all moves point inward) and every robot
// moves at most one king step, so the safety battery both round loops run
// (sim.Safety) holds under every activation scheduler; the paper-specific
// lemma invariants do not apply (sim.Invariant.PaperOnly).
//
// Each FSYNC round shrinks every span that is >= 2 by two, so gathering
// takes ceil((max span - 1) / 2) rounds — linear in the initial diameter
// and therefore in n, typically far below the paper strategy's round
// count. The price is the information model: the bounding box is global
// knowledge, not a viewing-path-V neighbourhood.
type LinTime struct {
	cfg   Config
	ch    *chain.Chain
	round int

	// Per-round scratch, reused so the steady-state round loop allocates
	// nothing (the repo-wide reuse rules, DESIGN.md §5). hops and guard
	// serve partial-activation rounds only.
	moved  []chain.Handle
	events []chain.MergeEvent
	hops   chain.Scratch[grid.Vec]
	guard  edgeGuard
}

// NewLinTime creates the contraction strategy for the chain (owned by the
// strategy afterwards). The configuration is validated for parity with the
// paper strategy, but none of its fields changes the contraction.
func NewLinTime(ch *chain.Chain, cfg Config) (*LinTime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ch.CheckEdges(); err != nil {
		return nil, err
	}
	return &LinTime{cfg: cfg, ch: ch}, nil
}

// Chain exposes the simulated chain (read-only use expected).
func (lt *LinTime) Chain() *chain.Chain { return lt.ch }

// Config returns the active configuration.
func (lt *LinTime) Config() Config { return lt.cfg }

// Round returns the number of rounds executed so far.
func (lt *LinTime) Round() int { return lt.round }

// Gathered reports whether the chain fits a 2x2 square.
func (lt *LinTime) Gathered() bool { return lt.ch.Gathered() }

// Runs implements Strategy; the contraction has no run machinery.
func (lt *LinTime) Runs() []*Run { return nil }

// StepActivated executes one contraction round for the activated robots
// (nil = all). Robots that moved seed the merge resolution, so the
// post-move cleanup is O(#moved + #merges) like the paper core's.
// Contraction hops are reported as RunnerHops: the "robots that moved to
// make progress" column of every consumer keeps one meaning across
// strategies (merge and start hops stay zero — there are no patterns and
// no runs). Stepping a gathered chain is a no-op, as the Strategy contract
// requires: the gathered report comes before the length check and before
// the round counter moves.
func (lt *LinTime) StepActivated(active []bool) (RoundReport, error) {
	ch := lt.ch
	rep := RoundReport{Round: lt.round}
	if ch.Gathered() {
		rep.ChainLen = ch.Len()
		rep.Gathered = true
		return rep, nil
	}
	if active != nil && len(active) != ch.Len() {
		return rep, fmt.Errorf("core: activation set has %d entries for %d robots", len(active), ch.Len())
	}
	lt.round++

	b := ch.Bounds()
	minX, maxX := b.Min.X, b.Max.X
	minY, maxY := b.Min.Y, b.Max.Y
	if maxX-minX >= 2 {
		minX, maxX = minX+1, maxX-1
	}
	if maxY-minY >= 2 {
		minY, maxY = minY+1, maxY-1
	}
	clampPos := func(p grid.Vec) grid.Vec {
		return grid.V(clampInt(p.X, minX, maxX), clampInt(p.Y, minY, maxY))
	}

	hs := ch.Handles()
	lt.moved = lt.moved[:0]
	if active == nil {
		// FSYNC: every robot applies the same 1-Lipschitz clamp, so no edge
		// can break and no guard is needed.
		for _, h := range hs {
			p := ch.PosOf(h)
			if q := clampPos(p); q != p {
				ch.SetPos(h, q)
				lt.moved = append(lt.moved, h)
			}
		}
	} else {
		// Partial activation: the activated robots' clamp hops go through
		// the edge-conflict fixpoint, and the survivors move in ring order.
		lt.hops.Reset(ch.NumHandles())
		for i, h := range hs {
			if p := ch.PosOf(h); active[i] {
				if q := clampPos(p); q != p {
					lt.hops.Set(h, q.Sub(p))
				}
			}
		}
		lt.guard.suppressIllegalHops(ch, &lt.hops)
		for _, h := range lt.hops.Keys() {
			if v, ok := lt.hops.Get(h); ok {
				ch.MoveBy(h, v)
				lt.moved = append(lt.moved, h)
			}
		}
	}
	rep.RunnerHops = len(lt.moved)

	// Defensive parity with the paper core: the clamp argument and the
	// fixpoint keep every edge legal, and this is the check that keeps
	// them honest against future edits. O(#moved), not O(n).
	if err := ch.CheckEdgesAround(lt.moved); err != nil {
		return rep, fmt.Errorf("core: lintime round %d broke the chain: %w", rep.Round, err)
	}

	lt.events = ch.AppendResolveMergesAround(lt.events[:0], lt.moved)
	rep.MergeEvents = lt.events
	rep.ChainLen = ch.Len()
	rep.Gathered = ch.Gathered()
	return rep, nil
}

// clampInt clamps v into [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
