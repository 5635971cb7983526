package core

import (
	"fmt"
	"slices"

	"gridgather/internal/chain"
	"gridgather/internal/view"
)

// This file holds the phase kernels StepActivated is built from
// (DESIGN.md §9), each called once per round over its whole range on the
// goroutine that steps. A look-phase kernel reads the frozen round state
// over a half-open range [lo, hi) and writes only its own output buffers,
// reset on entry, so a call over a sub-range yields exactly that range's
// share of the full call. The worker argument is ignored; the signatures
// keep it so existing callers of the exported kernels still compile. The
// mutation kernels (move, merge-resolve, apply) run over explicit ranges
// of the round's combined buffers.

// KernelMergeScan detects the merge patterns whose first black robot lies
// in [lo, hi): spikes (k=1 direction reversals) and straight U-turns
// (k>=2), exactly the pattern set of DetectMerges restricted to the range.
// It is the one merge scan (appendMergeScan): reads may cross the range's
// ends, so a merge reaching past hi is reported whole by the range holding
// its first black.
//
// Kernel contract: reads the edge codes; writes only the spikes/uturns
// buffers (reset on entry).
func (a *Algorithm) KernelMergeScan(_, lo, hi int) {
	sc := &a.scratch
	sc.spikes, sc.uturns = appendMergeScan(sc.spikes[:0], sc.uturns[:0], a.ch.EdgeCodes(), a.cfg.MaxMergeLen, lo, hi)
}

// CombineMergePlan folds the KernelMergeScan buffers into the round's
// merge plan — all spikes in ascending chain order, then all U-turns in
// ascending chain order, DetectMerges' pattern order — and runs the plan
// tail (spike-priority suppression, participant set, combined hops).
func (a *Algorithm) CombineMergePlan() error {
	plan := a.plan
	plan.Patterns = append(append(plan.Patterns[:0], a.scratch.spikes...), a.scratch.uturns...)
	return plan.finish(a.ch)
}

// KernelDecide computes the run decisions for slots [lo, hi) of a.runs
// against the frozen look-phase state. Runs whose host sleeps this round
// are frozen (non-FSYNC schedulers); a nil activation set wakes every
// host, so only a given set costs a host lookup here.
//
// Kernel contract: reads chain, merge plan, runs and run mask; writes
// only the decisions buffer (reset on entry, one decision per slot,
// written in place) and adds to the round's anomaly counters, which
// StepActivated resets when the round begins. The run mask is the one the
// previous round (or a restore) left, so a standalone call between rounds
// reads a current one.
func (a *Algorithm) KernelDecide(_, lo, hi int) {
	sc := &a.scratch
	sc.decisions = slices.Grow(sc.decisions[:0], hi-lo)[:hi-lo]
	for i, run := range a.runs[lo:hi] {
		d := &sc.decisions[i]
		if a.active != nil && !activeAt(a.active, a.ch.IndexOf(run.Host)) {
			*d = runDecision{run: run, frozen: true}
			continue
		}
		a.computeRunDecision(d, run, a.plan, &a.anomalies)
	}
}

// KernelStartScan evaluates the Fig 5 run-start patterns for the active
// robots at chain indices [lo, hi) that take part in no merge. The L-th
// round gating and the SequentialRuns ablation are the driver's business;
// the kernel always scans.
//
// Both Fig 5 patterns stand on a corner, where the edge code changes
// (DetectStart's first test), so the scan skips straight stretches eight
// edges per compare (nextTurn) before it looks at a robot.
//
// Kernel contract: reads the edge codes and handles, merge plan, run
// counts and run mask; writes only the pending list and the start-hop
// table (both reset on entry), in chain order.
func (a *Algorithm) KernelStartScan(_, lo, hi int) {
	sc := &a.scratch
	sc.pending = sc.pending[:0]
	sc.startHops.Reset(a.ch.NumHandles())
	var s view.Snapshot
	edges, order := a.ch.EdgeCodes(), a.ch.Handles()
	for i := lo; i < hi; i++ {
		if i > 0 && edges[i] == edges[i-1] {
			if i = nextTurn(edges, i+1, hi); i == hi {
				break
			}
		}
		if !activeAt(a.active, i) {
			continue // sleeping robots look at nothing and start nothing
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
		if int(a.runCount[i])+len(spec.Dirs) > 2 {
			continue // a robot stores at most two run states
		}
		for _, dir := range spec.Dirs {
			sc.pending = append(sc.pending, pendingStart{
				robot: r, idx: i, dir: dir, kind: spec.Kind, pair: -1,
			})
		}
		if !spec.Hop.IsZero() {
			sc.startHops.Set(r, spec.Hop)
		}
	}
}

// kernelMove executes positions [lo, hi) of the round's combined hop list:
// surviving hops move their robot, suppressed entries are skipped. Runs
// after the edge-conflict fixpoint, so every executed hop is a king step
// onto a legal edge; a non-king hop is an engine defect, not a model state.
func (a *Algorithm) kernelMove(lo, hi int) error {
	sc := &a.scratch
	keys := sc.hops.Keys()
	for _, r := range keys[lo:hi] {
		h, ok := sc.hops.Get(r)
		if !ok {
			continue // suppressed by a hop conflict
		}
		if !h.IsKingStep() {
			return fmt.Errorf("core: robot %d would hop %v (not a king step)", a.ch.ID(r), h)
		}
		a.ch.MoveBy(r, h)
		sc.moved = append(sc.moved, r)
	}
	return nil
}

// kernelResolveMerges resolves the merges seeded by sc.moved[lo:hi],
// appending chain.MergeEvents to the round's event list. Co-location
// requires a mover, so seeding from the moved set finds every merge in
// O(#moved + #merges) without rescanning the ring.
func (a *Algorithm) kernelResolveMerges(lo, hi int) {
	sc := &a.scratch
	sc.mergeEvents = a.ch.AppendResolveMergesAround(sc.mergeEvents, sc.moved[lo:hi])
}

// kernelApply applies decisions [lo, hi): terminations are recorded,
// surviving runs advance with survivor-link rehosting (resolveAlive chases
// hosts removed by this round's merges), and the survivors are appended to
// sc.alive. events is the round's merge-event count, bounding the survivor
// walks.
func (a *Algorithm) kernelApply(lo, hi, events int) {
	sc := &a.scratch
	for i := lo; i < hi; i++ {
		d := &sc.decisions[i]
		run := d.run
		if d.frozen {
			// A sleeping host freezes its runs in place. The host may still
			// have been removed by a merge an active neighbour completed —
			// follow the survivor links like an advance would.
			if !a.ch.Contains(run.Host) {
				host := a.resolveAlive(run.Host, events)
				if host == chain.None {
					sc.ends = append(sc.ends, EndEvent{
						RunID: run.ID, Reason: TermHostRemoved,
						RobotID: a.ch.ID(run.Host), MergeRobot: -1,
					})
					a.anomalies.LostAdvance++
					continue
				}
				run.Host = host
			}
			sc.alive = append(sc.alive, run)
			continue
		}
		if d.terminate {
			sc.ends = append(sc.ends, EndEvent{
				RunID: run.ID, Reason: d.reason,
				RobotID: a.ch.ID(run.Host), MergeRobot: d.mergeRobot,
			})
			if d.reason == TermStuck {
				a.anomalies.StuckRuns++
			}
			continue
		}
		next := a.resolveAlive(d.advanceTo, events)
		if next == chain.None {
			sc.ends = append(sc.ends, EndEvent{
				RunID: run.ID, Reason: TermStuck,
				RobotID: a.ch.ID(run.Host), MergeRobot: -1,
			})
			a.anomalies.LostAdvance++
			continue
		}
		run.Host = next
		run.Mode = d.newMode
		run.TraverseLeft = d.newTraverseLeft
		run.OpOrigin = d.newOpOrigin
		run.OpTarget = d.newOpTarget
		run.PassTarget = d.newPassTarget
		run.PassBudget = d.newPassBudget
		if run.Mode == ModePassing && run.Host == run.PassTarget {
			// Arrived at the passing target corner: resume normal
			// operation (Fig 8 "afterwards, they return to normal").
			run.Mode = ModeNormal
			run.PassTarget = chain.None
			run.PassBudget = 0
		}
		sc.alive = append(sc.alive, run)
	}
}
