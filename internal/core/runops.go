package core

import (
	"gridgather/internal/chain"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// runDecision is the outcome computed for one run during the compute phase
// of a round. Decisions for all runs are computed against the frozen
// look-phase state and applied together, matching the FSYNC model.
type runDecision struct {
	run *Run

	// frozen marks a run whose host sleeps this round (non-FSYNC
	// schedulers only): no termination check, no hop, no advance — the run
	// state carries over unchanged, except that a host removed by a
	// neighbour's merge is chased along the survivor links.
	frozen bool

	terminate bool
	reason    TerminateReason
	// mergeRobot identifies the merge pattern of a TermMerge (the ID of
	// its first black robot); -1 otherwise.
	mergeRobot int

	// hop is the runner's reshapement hop (zero when none).
	hop grid.Vec
	// advanceTo is the robot the run moves to (the look-phase successor in
	// moving direction); chain.None when terminating.
	advanceTo chain.Handle

	// Post-advance state.
	newMode         RunMode
	newTraverseLeft int
	newOpOrigin     chain.Handle
	newOpTarget     chain.Handle
	newPassTarget   chain.Handle
	newPassBudget   int
}

// passBudgetFor bounds how long a passing operation may take before the
// engine declares the run stuck. The paper bounds passing by 6 rounds
// (proof of Lemma 3); twice the viewing range is a generous safety margin.
func passBudgetFor(cfg Config) int { return 2 * cfg.ViewingPathLength }

// computeRunDecision evaluates the paper's per-round runner rule (Fig 15,
// step 2) for a single run: first the termination conditions of Table 1,
// then run passing (continuation or trigger), then the traverse operations
// (b)/(c), then the reshapement operation (a). The decision is written to
// *d, a slot of KernelDecide's decisions buffer, and the anomalies it
// raises are added to *an; the rule itself only reads the frozen round
// state.
//
// Everything the rule reads of the window in front of the run — the
// quasi-line endpoint, the first sequent and the first approaching run,
// the aligned count — comes from one pass over at most V edge codes and
// run-mask bytes (scanLine).
func (a *Algorithm) computeRunDecision(d *runDecision, run *Run, plan *MergePlan, an *Anomalies) {
	// Clear the reused slot, then set the non-zero defaults: assigning a
	// composite literal would build it in a temporary and copy it.
	*d = runDecision{}
	d.run = run
	d.mergeRobot = -1
	d.advanceTo = chain.None
	d.newMode = run.Mode
	d.newTraverseLeft = run.TraverseLeft
	d.newOpOrigin = run.OpOrigin
	d.newOpTarget = run.OpTarget
	d.newPassTarget = run.PassTarget
	d.newPassBudget = run.PassBudget
	idx := a.ch.IndexOf(run.Host)
	if idx < 0 {
		d.terminate, d.reason = true, TermHostRemoved
		return
	}
	dir := run.Dir

	// Table 1.3 — the runner is part of a merge operation this round.
	if plan.Participant(run.Host) {
		d.terminate, d.reason = true, TermMerge
		d.mergeRobot = a.patternOf(idx, dir, plan)
		return
	}

	var s view.Snapshot
	view.At(&s, a.ch, idx, a.cfg.ViewingPathLength, a.runMask)
	scanMax := min(a.cfg.ViewingPathLength, a.ch.Len()-1)
	trigger := min(PassingTriggerDistance, scanMax)
	var l lineScan
	scanLine(&s, dir, scanMax, trigger, &l)

	// Table 1.1 — a sequent (same-direction) run is visible in front on
	// the same quasi line ("sequent" is the paper's term for pipelined
	// runs on one line, §3.3; a co-directional run beyond the line's end
	// is someone else's pipeline). The visible end of the quasi line
	// bounds both run checks: runs beyond it belong to other quasi lines.
	seqMax := scanMax
	if l.endSeen {
		seqMax = min(seqMax, l.end-1)
	}
	if l.away != 0 && l.away <= seqMax {
		d.terminate, d.reason = true, TermSequentRun
		return
	}

	// Table 1.4 / 1.5 — the target corner of the current passing or
	// traverse operation was removed by a merge.
	if run.Mode == ModePassing && run.PassTarget != chain.None && !a.ch.Contains(run.PassTarget) {
		d.terminate, d.reason = true, TermPassTargetGone
		return
	}
	if run.Mode == ModeTraverse && run.OpTarget != chain.None && !a.ch.Contains(run.OpTarget) {
		d.terminate, d.reason = true, TermOpTargetGone
		return
	}

	// Table 1.2 — the endpoint of the quasi line is visible in front, with
	// no approaching run at or before it (an approaching run means a merge
	// or a passing is imminent instead; see DESIGN.md §3.4).
	if l.endSeen {
		window := min(max(l.end, PassingTriggerDistance), scanMax)
		if l.towards == 0 || l.towards > window {
			d.terminate, d.reason = true, TermEndpoint
			return
		}
	}

	// The run survives this round and moves one robot onward (Lemma 3.1).
	d.advanceTo = s.Robot(dir)

	// Run passing continuation (Fig 8): no hops until the target corner.
	if run.Mode == ModePassing {
		d.newPassBudget--
		if d.newPassBudget < 0 {
			d.terminate, d.reason = true, TermStuck
		}
		return
	}

	// Run passing trigger: an approaching run within distance 3 (checked
	// before continuing operation (b)/(c) — passing interrupts them,
	// Fig 14). The pass found the first robot showing one; the runs name
	// the run.
	for j := l.towards; l.towards != 0 && j <= trigger; j++ {
		partner := a.approachingRunAt(&s, j*dir, dir)
		if partner == nil {
			continue
		}
		d.newMode = ModePassing
		d.newPassBudget = passBudgetFor(a.cfg)
		if run.Mode == ModeTraverse {
			// The interrupted operation keeps its own target corner
			// (Fig 14: "the target of S1 as before is c2").
			d.newPassTarget = run.OpTarget
		} else if partner.Mode == ModeTraverse && partner.OpOrigin != chain.None {
			// The partner is mid-operation: our target is the corner where
			// that operation started (Fig 14: "the target corner of S2 is
			// the corner c1").
			d.newPassTarget = partner.OpOrigin
		} else {
			d.newPassTarget = partner.Host
		}
		d.newTraverseLeft, d.newOpOrigin, d.newOpTarget = 0, chain.None, chain.None
		return
	}

	// Traverse continuation (operations (b)/(c)): move without hopping.
	if run.Mode == ModeTraverse {
		d.newTraverseLeft--
		if d.newTraverseLeft <= 0 {
			d.newMode = ModeNormal
			d.newTraverseLeft, d.newOpOrigin, d.newOpTarget = 0, chain.None, chain.None
		}
		return
	}

	// Normal mode: reshapement operations at a corner (Fig 11).
	if !cornerAt(l.lead, l.trail) {
		// A run should only stand mid-segment transiently; advance without
		// hopping and let the structure ahead decide its fate.
		an.NotOnCorner++
		return
	}
	switch sa := l.aligned; {
	case sa >= 3:
		// Operation (a): the runner and at least the next three robots lie
		// on a straight line — diagonal hop forward towards the trailing
		// side, shortening the segment.
		d.hop = l.lead.Vec().Add(l.trail.Vec())
	case sa == 2:
		// Operation (b): segment of exactly three robots ahead — traverse
		// to the corner after the jog without reshaping (three moves,
		// counting this round's).
		d.newMode = ModeTraverse
		d.newTraverseLeft = OpBTraverse - 1
		d.newOpOrigin = run.Host
		d.newOpTarget = s.Robot(OpBTraverse * dir)
	default:
		// The segment ahead is shorter than any operation handles; the
		// structure is about to resolve via a merge or condition 2.
		an.ShortAhead++
	}
}

// approachingRunAt returns a run on the robot at view offset k moving
// towards the observer (direction opposite to dir), or nil: the first such
// run in a.runs order. The run mask answers the common "none" case; only a
// set bit scans the runs for the run itself, a few times a round on the
// gathers measured (DESIGN.md §9).
func (a *Algorithm) approachingRunAt(s *view.Snapshot, k, dir int) *Run {
	if !s.HasRunTowards(k) {
		return nil
	}
	h := s.Robot(k)
	for _, r := range a.runs {
		if r.Host == h && r.Dir == -dir && !r.justStarted {
			return r
		}
	}
	return nil
}

// patternOf returns the ID of the first black robot of the merge pattern a
// terminating run died into, identifying "the merge" for the Lemma 2
// accounting. A robot (e.g. a corner) can participate in two patterns; the
// run's own merge is the one extending in its moving direction, so
// patterns containing both the host and its successor in direction dir are
// preferred.
func (a *Algorithm) patternOf(idx, dir int, plan *MergePlan) int {
	n := a.ch.Len()
	covers := func(pat MergePattern, target int) bool {
		for j := -1; j <= pat.Len; j++ {
			if ((pat.FirstBlack+j)%n+n)%n == ((target%n)+n)%n {
				return true
			}
		}
		return false
	}
	fallback := -1
	for _, pat := range plan.Patterns {
		if !covers(pat, idx) {
			continue
		}
		if covers(pat, idx+dir) {
			return a.ch.ID(a.ch.At(pat.FirstBlack))
		}
		if fallback == -1 {
			fallback = a.ch.ID(a.ch.At(pat.FirstBlack))
		}
	}
	return fallback
}
