package core

import (
	"fmt"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// This file holds the phase kernels StepActivated is built from
// (DESIGN.md §9). Each look-phase kernel reads the frozen round state over
// a half-open chunk [lo, hi) and writes only its own worker's buffers; the
// driver then combines the per-worker buffers in worker (= chunk) order, so
// the observable round is byte-identical for every Config.Workers value.
// The mutation kernels (move, merge-resolve, apply) run sequentially over
// explicit ranges — they ARE the seam-exchange step: every cross-chunk
// interaction (edge-conflict fixpoint at a seam, a merge spanning a chunk
// boundary, survivor-link rehosting) resolves here against the combined
// buffers instead of behind locks.

// startHop records a run-start hop detected by KernelStartScan; the driver
// replays the per-worker lists into the round's startHops table in chunk
// order, reproducing the sequential insertion order byte for byte.
type startHop struct {
	robot chain.Handle
	hop   grid.Vec
}

// workerCtx is one worker's persistent kernel state. Buffers are reset by
// the kernel that owns them at chunk entry and never re-allocated in steady
// state, keeping the fan-out allocation-free (the PR 2 scratch-reuse rules
// extended per worker).
type workerCtx struct {
	// loc is the worker-private view.RunLocator: the shared run registry
	// read through a private scratch buffer, so concurrent snapshot
	// evaluation cannot race on the engine's shared RunsOn buffer.
	loc chunkLocator
	// anomalies collects this worker's defensive-path counts; the driver
	// folds them into the round total in worker order.
	anomalies Anomalies

	// KernelMergeScan output: spikes (k=1) and U-turns (k>=2), each in
	// ascending chain order within the chunk.
	spikes []MergePattern
	uturns []MergePattern
	// KernelDecide output, in run-registry order within the chunk.
	decisions []runDecision
	// KernelStartScan output, in chain order within the chunk.
	pending   []pendingStart
	startHops []startHop
}

// chunkLocator implements view.RunLocator over the algorithm's run
// registry with a per-worker result buffer (the registry itself is
// read-only during the look phase; only the scratch buffer needed
// privatising).
type chunkLocator struct {
	a   *Algorithm
	buf []view.RunView
}

// RunsOn implements view.RunLocator; see Algorithm.RunsOn for semantics.
func (l *chunkLocator) RunsOn(h chain.Handle) []view.RunView {
	l.buf = appendRunViews(&l.a.byHandle, h, l.buf[:0])
	if len(l.buf) == 0 {
		return nil
	}
	return l.buf
}

// appendRunViews appends the visible run states of robot h to dst: the one
// registry read shared by the engine's locator and the per-worker ones.
// Runs started in the current round are not yet visible (FSYNC semantics).
func appendRunViews(byHandle *chain.Scratch[hostRuns], h chain.Handle, dst []view.RunView) []view.RunView {
	hr, ok := byHandle.Get(h)
	if !ok || hr.n == 0 {
		return dst
	}
	for _, run := range hr.stored() {
		if !run.justStarted {
			dst = append(dst, view.RunView{Dir: run.Dir})
		}
	}
	return dst
}

// forEachChunk fans fn over [0, n) in exactly len(a.workers) contiguous
// chunks: through the worker pool when one exists (Workers >= 2), inline
// otherwise. Chunk boundaries are a pure function of (n, P) — see
// parallel.Pool — so combine steps that walk the workers in index order
// are deterministic for any scheduling.
func (a *Algorithm) forEachChunk(n int, fn func(worker, lo, hi int)) {
	if a.pool != nil {
		a.pool.Run(n, fn)
		return
	}
	p := len(a.workers)
	for w := 0; w < p; w++ {
		fn(w, w*n/p, (w+1)*n/p)
	}
}

// KernelMergeScan detects the merge patterns whose first black robot lies
// in chunk [lo, hi): spikes (k=1 direction reversals) and straight U-turns
// (k>=2), exactly the pattern set of DetectMerges restricted to the chunk.
// It is the one merge scan (appendMergeScan) over the chunk: reads may
// cross the seam, writes never do, so a merge straddling a chunk boundary
// is owned by the chunk holding its first black and no seam coordination
// is needed.
//
// Kernel contract: reads the materialised ring order and positions; writes
// only this worker's spikes/uturns buffers (reset on entry).
func (a *Algorithm) KernelMergeScan(worker, lo, hi int) {
	switch a.activeFault() {
	case FaultPanic:
		panic(fmt.Sprintf("core: injected kernel panic (worker %d, round %d)", worker, a.round))
	case FaultWorkerStall:
		if worker%2 == 1 {
			time.Sleep(200 * time.Microsecond) // skew the fan-out's completion order
		}
	}
	w := &a.workers[worker]
	w.spikes, w.uturns = appendMergeScan(w.spikes[:0], w.uturns[:0], a.ch, a.cfg.MaxMergeLen, lo, hi)
}

// CombineMergePlan folds the per-worker KernelMergeScan buffers into the
// round's merge plan in worker order — all spikes in ascending chain order,
// then all U-turns in ascending chain order, reproducing DetectMerges'
// pattern order byte for byte — and runs the sequential plan tail
// (spike-priority suppression, participant set, combined hops).
func (a *Algorithm) CombineMergePlan() error {
	plan := a.plan
	plan.Patterns = plan.Patterns[:0]
	for i := range a.workers {
		plan.Patterns = append(plan.Patterns, a.workers[i].spikes...)
	}
	for i := range a.workers {
		plan.Patterns = append(plan.Patterns, a.workers[i].uturns...)
	}
	return plan.finish(a.ch, a.activeFault() != FaultSkipSpikePriority)
}

// KernelDecide computes the run decisions for registry slots [lo, hi) of
// a.runs against the frozen look-phase state. Runs whose host sleeps this
// round are frozen (non-FSYNC schedulers).
//
// Kernel contract: reads chain, merge plan and run registry; writes only
// this worker's decisions buffer and anomaly counters (both reset on
// entry). Snapshots are evaluated through the worker's private locator.
func (a *Algorithm) KernelDecide(worker, lo, hi int) {
	w := &a.workers[worker]
	w.decisions = w.decisions[:0]
	w.anomalies = Anomalies{}
	for _, run := range a.runs[lo:hi] {
		if !activeAt(a.active, a.ch.IndexOf(run.Host)) {
			w.decisions = append(w.decisions, runDecision{run: run, frozen: true})
			continue
		}
		w.decisions = append(w.decisions, a.computeRunDecision(run, a.plan, &w.loc, &w.anomalies))
	}
}

// KernelStartScan evaluates the Fig 5 run-start patterns for the active
// robots at chain indices [lo, hi) that take part in no merge. The L-th
// round gating and the SequentialRuns ablation are the driver's business;
// the kernel always scans.
//
// Kernel contract: reads chain, merge plan and run registry; writes only
// this worker's pending/startHops buffers (reset on entry).
func (a *Algorithm) KernelStartScan(worker, lo, hi int) {
	w := &a.workers[worker]
	w.pending = w.pending[:0]
	w.startHops = w.startHops[:0]
	for i := lo; i < hi; i++ {
		if !activeAt(a.active, i) {
			continue // sleeping robots look at nothing and start nothing
		}
		r := a.ch.At(i)
		if a.plan.Participant(r) {
			continue
		}
		s := view.At(a.ch, i, a.cfg.ViewingPathLength, &w.loc)
		spec, ok := DetectStart(s)
		if !ok {
			continue
		}
		if hr, _ := a.byHandle.Get(r); hr.n+len(spec.Dirs) > 2 {
			continue // a robot stores at most two run states
		}
		for _, dir := range spec.Dirs {
			w.pending = append(w.pending, pendingStart{
				robot: r, idx: i, dir: dir, kind: spec.Kind, pair: -1,
			})
		}
		if !spec.Hop.IsZero() {
			w.startHops = append(w.startHops, startHop{robot: r, hop: spec.Hop})
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
	if a.activeFault() == FaultSkipMergeResolution {
		return
	}
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
