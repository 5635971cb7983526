package core

import (
	"fmt"
	"math"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// stepScratch is the Algorithm's reusable per-round working state. Every
// table and slice is cleared (not re-made) at the start of the phase using
// it, which keeps the steady-state round loop allocation-free; see
// DESIGN.md §5 for the reuse rules. The per-robot tables are flat
// chain.Scratch slices indexed by handle with O(1) generation clearing —
// no pointer-keyed maps remain on the hot path (DESIGN.md §6). Nothing
// here survives a round as meaningful state — the chain, the runs and the
// round counter are the only true state of the algorithm, which is why
// scratch reuse cannot affect determinism.
type stepScratch struct {
	// spikes and uturns are KernelMergeScan's output (spikes (k=1) and
	// U-turns (k>=2), each in ascending chain order), which
	// CombineMergePlan folds into the merge plan.
	spikes      []MergePattern
	uturns      []MergePattern
	decisions   []runDecision
	pending     []pendingStart
	startHops   chain.Scratch[grid.Vec]
	hops        chain.Scratch[grid.Vec]
	runnerHop   chain.Scratch[struct{}]
	survivorOf  chain.Scratch[chain.Handle]
	guard       edgeGuard
	moved       []chain.Handle
	alive       []*Run
	pairKey     map[[2]int]int
	starts      []StartEvent
	ends        []EndEvent
	mergeEvents []chain.MergeEvent
}

// Algorithm executes the paper's gathering strategy on one chain. It owns
// the runs and advances the configuration one round per StepActivated call,
// performing for every robot the three checks of Fig 15: merge, run
// operations, and (every L-th round) run starts.
type Algorithm struct {
	cfg  Config
	ch   *chain.Chain
	runs []*Run
	// runMask is the ring-indexed run-direction mask the look phase reads
	// (view.RunBit per hosted run), runCount the number of runs each
	// robot hosts (saturating at 255; only "more than two" matters), and
	// runMaskSet the indices the last build set, so the next build clears
	// both in O(#runs). indexRuns rebuilds all three.
	runMask    []uint8
	runCount   []uint8
	runMaskSet []int32
	round      int
	nextRun    int
	nextPair   int

	// plan and scratch are reused round over round (cleared, never
	// re-allocated); their contents are valid only within one round.
	plan    *MergePlan
	scratch stepScratch

	// anomalies accumulates defensive-path counts for the current round;
	// StepActivated moves them into the report.
	anomalies Anomalies

	// active is the current round's activation set (nil = FSYNC), stored
	// so the kernels, whose (worker, lo, hi) signature is fixed, can
	// consult it.
	active []bool
}

// New creates an Algorithm for the chain with the given configuration.
// The chain is owned by the algorithm afterwards.
func New(ch *chain.Chain, cfg Config) (*Algorithm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ch.CheckEdges(); err != nil {
		return nil, err
	}
	a := &Algorithm{
		cfg:      cfg,
		ch:       ch,
		runMask:  make([]uint8, ch.Len()), // chains only shrink
		runCount: make([]uint8, ch.Len()),
		plan:     NewMergePlan(),
		scratch: stepScratch{
			pairKey: make(map[[2]int]int),
		},
	}
	return a, nil
}

// Chain exposes the simulated chain (read-only use expected).
func (a *Algorithm) Chain() *chain.Chain { return a.ch }

// Config returns the active configuration.
func (a *Algorithm) Config() Config { return a.cfg }

// Round returns the number of rounds executed so far.
func (a *Algorithm) Round() int { return a.round }

// Runs returns the currently active runs. The slice is shared; callers
// must not mutate it.
func (a *Algorithm) Runs() []*Run { return a.runs }

// Gathered reports whether the configuration satisfies the termination
// condition (all robots within a 2x2 square).
func (a *Algorithm) Gathered() bool { return a.ch.Gathered() }

// pendingStart is a run about to be created this round, with the pair
// annotation filled in by pairStarts.
type pendingStart struct {
	robot chain.Handle
	idx   int
	dir   int
	kind  StartKind
	pair  int
	good  bool
}

// pairStarts identifies, for every pending run, the pending run started at
// the other endpoint of the same quasi line moving towards it (its pair,
// paper §3.2), and classifies the pair as good (Fig 12: the outer chain
// neighbours of both endpoints lie on the same side of the line). The walk
// uses the full chain — this is engine instrumentation for the Lemma 1/2
// experiments, not information available to a robot; it never influences
// behaviour.
func (a *Algorithm) pairStarts(pending []pendingStart) {
	if len(pending) < 2 {
		return
	}
	n := a.ch.Len()
	byKey := a.scratch.pairKey // (idx, dir) -> pending slot
	clear(byKey)
	for i, p := range pending {
		byKey[[2]int{p.idx, p.dir}] = i
	}
	var s view.Snapshot
	for i := range pending {
		p := &pending[i]
		if p.pair >= 0 {
			continue
		}
		// Walk the quasi line from the start robot in moving direction;
		// the partner sits at its far end, moving back towards us. Use an
		// unbounded view: the instrumentation may see the whole chain.
		view.At(&s, a.ch, p.idx, n-1, a.runMask)
		endOff, ok := EndpointAhead(&s, p.dir)
		if !ok || endOff == 0 {
			continue
		}
		endIdx := ((p.idx+p.dir*endOff)%n + n) % n
		j, found := byKey[[2]int{endIdx, -p.dir}]
		if !found || pending[j].pair >= 0 {
			continue
		}
		q := &pending[j]
		id := a.nextPair
		a.nextPair++
		p.pair, q.pair = id, id
		// Good pair: equal perpendicular offsets of the outer neighbours.
		outerP := a.ch.Pos(p.idx - p.dir).Sub(a.ch.Pos(p.idx))
		outerQ := a.ch.Pos(endIdx + p.dir).Sub(a.ch.Pos(endIdx))
		p.good = outerP == outerQ
		q.good = p.good
	}
}

// indexRuns rebuilds the two ring-indexed tables over a.runs that the
// next look phase reads: the run-direction mask and the run count. Every
// listed run is visible to that look phase — it clears the just-started
// flags before any decision — so the mask carries them all. Both are
// cleared at the indices their previous build set, not swept, so a
// rebuild costs O(#runs). It runs at the end of every round and in
// restore, so a standalone kernel call between rounds reads current
// tables.
func (a *Algorithm) indexRuns() {
	for _, i := range a.runMaskSet {
		a.runMask[i], a.runCount[i] = 0, 0
	}
	a.runMaskSet = a.runMaskSet[:0]
	for _, run := range a.runs {
		i := a.ch.IndexOf(run.Host)
		if i < 0 {
			continue // off the chain: the next decide terminates the run
		}
		if a.runCount[i] == 0 {
			a.runMaskSet = append(a.runMaskSet, int32(i))
		}
		if a.runCount[i] < math.MaxUint8 {
			a.runCount[i]++
		}
		a.runMask[i] |= view.RunBit(run.Dir)
	}
}

// resolveAlive follows merge survivor links (recorded in the scratch
// survivor table for the current round) until it reaches a robot still on
// the chain. maxHops bounds the walk by the number of merge events; a
// longer chain of links would be a cycle, which cannot happen.
func (a *Algorithm) resolveAlive(h chain.Handle, maxHops int) chain.Handle {
	for hops := 0; h != chain.None && !a.ch.Contains(h); hops++ {
		if hops > maxHops {
			return chain.None
		}
		next, ok := a.scratch.survivorOf.Get(h)
		if !ok {
			return chain.None
		}
		h = next
	}
	return h
}

// activeAt reports whether the robot at chain index i is activated this
// round; a nil activation set means FSYNC (everyone is).
func activeAt(active []bool, i int) bool {
	return active == nil || (i >= 0 && i < len(active) && active[i])
}

// StepActivated executes one round under a partial activation set:
// active[i] decides whether the robot at chain index i (at the start of
// the round) performs its look–compute–move cycle. Sleeping robots keep
// their position, start no runs, execute no merge hops, and their hosted
// runs are frozen in place; their stale positions remain fully visible to
// active robots (internal/sched documents the model). A nil set is FSYNC:
// it runs exactly like a set with every entry true, and the one
// edge-conflict fixpoint settles the round either way.
//
// The report's event slices (Starts, Ends, MergeEvents) are backed by
// scratch buffers reused by the next round; callers that retain them
// across rounds must copy (see DESIGN.md §5).
func (a *Algorithm) StepActivated(active []bool) (RoundReport, error) {
	rep := RoundReport{Round: a.round}
	if a.ch.Gathered() {
		rep.ChainLen = a.ch.Len()
		rep.Gathered = true
		return rep, nil
	}
	if active != nil && len(active) != a.ch.Len() {
		return rep, fmt.Errorf("core: activation set has %d entries for %d robots", len(active), a.ch.Len())
	}
	a.anomalies = Anomalies{}
	a.active = active
	sc := &a.scratch
	nh := a.ch.NumHandles()
	n := a.ch.Len()

	// ---- Look & compute -------------------------------------------------
	// 1. Merge patterns (Fig 15 step 1). Participants suspend run
	//    operations; blacks hop towards the whites.
	a.KernelMergeScan(0, 0, n)
	if err := a.CombineMergePlan(); err != nil {
		return rep, err
	}
	plan := a.plan
	rep.MergePatterns = len(plan.Patterns)

	// 2. Run operations (Fig 15 step 2), decided against the frozen
	//    look-phase state for every active run. All newly-started flags
	//    clear before any decision: runs created in the same earlier round
	//    become visible to each other simultaneously (FSYNC symmetry).
	for _, run := range a.runs {
		run.justStarted = false
	}
	a.KernelDecide(0, 0, len(a.runs))
	decisions := sc.decisions

	// 3. Run starts (Fig 15 step 3): every L-th round, robots matching the
	//    Fig 5 patterns start runs, unless they take part in a merge.
	sc.pending = sc.pending[:0]
	sc.startHops.Reset(nh)
	if !a.cfg.DisableRunStarts &&
		a.round%a.cfg.RunPeriod == 0 && n >= MinChainForRuns &&
		(!a.cfg.SequentialRuns || len(a.runs) == 0) {
		a.KernelStartScan(0, 0, n)
		a.pairStarts(sc.pending)
	}
	pending := sc.pending

	// ---- Move -----------------------------------------------------------
	// Collect all hops; apply simultaneously. A robot receives at most one
	// hop source: merge participants have no active run decisions or
	// starts, runner/start hops collide only in anomalous situations,
	// where both are suppressed.
	sc.hops.Reset(nh)
	for _, h := range plan.HopHandles() {
		if !activeAt(active, a.ch.IndexOf(h)) {
			continue // sleeping blacks execute no merge hop
		}
		if v, ok := plan.Hop(h); ok {
			sc.hops.Set(h, v)
			rep.MergeHops++
		}
	}
	sc.runnerHop.Reset(nh)
	for i := range decisions {
		d := &decisions[i]
		if d.terminate || d.hop.IsZero() {
			continue
		}
		r := d.run.Host
		if sc.hops.Has(r) || sc.runnerHop.Has(r) {
			a.anomalies.HopConflicts++
			if sc.runnerHop.Has(r) && sc.hops.Has(r) {
				// Two runner hops on one robot: both are suppressed, so
				// the hop counted when the first one was accepted is
				// retracted too.
				sc.hops.Delete(r)
				rep.RunnerHops--
			}
			continue
		}
		sc.hops.Set(r, d.hop)
		sc.runnerHop.Set(r, struct{}{})
		rep.RunnerHops++
	}
	for _, r := range sc.startHops.Keys() {
		h, _ := sc.startHops.Get(r)
		if sc.hops.Has(r) {
			a.anomalies.HopConflicts++
			continue
		}
		sc.hops.Set(r, h)
		rep.StartHops++
	}
	// Edge-conflict suppression (DESIGN.md §3.6), one rule for every
	// activation set: runners put back to back by merge splices, and under
	// partial activation merge or start hops next to sleeping robots, would
	// break an edge. Each suppressed hop leaves the counter of its class
	// (disjoint: merge participants host no surviving run decisions, and
	// start hops are dropped on robots that already hop) and counts one
	// hop conflict.
	for _, r := range sc.guard.suppressIllegalHops(a.ch, &sc.hops) {
		switch {
		case sc.runnerHop.Has(r):
			rep.RunnerHops--
		case sc.startHops.Has(r):
			rep.StartHops--
		default:
			rep.MergeHops--
		}
		a.anomalies.HopConflicts++
	}
	sc.moved = sc.moved[:0]
	if err := a.kernelMove(0, len(sc.hops.Keys())); err != nil {
		return rep, err
	}
	// Only edges incident to a moved robot can have changed; checking those
	// is equivalent to the full CheckEdges sweep at O(#moved) cost.
	if err := a.ch.CheckEdgesAround(sc.moved); err != nil {
		return rep, fmt.Errorf("core: chain broke in round %d: %w", a.round, err)
	}

	// ---- Merge resolution ------------------------------------------------
	sc.mergeEvents = sc.mergeEvents[:0]
	a.kernelResolveMerges(0, len(sc.moved))
	events := sc.mergeEvents
	rep.MergeEvents = events
	sc.survivorOf.Reset(nh)
	for _, ev := range events {
		sc.survivorOf.Set(ev.Removed, ev.Survivor)
	}

	// ---- Apply run decisions ----------------------------------------------
	sc.ends = sc.ends[:0]
	sc.alive = a.runs[:0]
	a.kernelApply(0, len(sc.decisions), len(events))
	a.runs = sc.alive
	ends := sc.ends
	rep.Ends = ends

	// Materialise run starts. The starting robots never take part in a
	// merge (excluded above), so they are still on the chain; resolveAlive
	// is a defensive guard only.
	starts := sc.starts[:0]
	for _, ps := range pending {
		r := a.resolveAlive(ps.robot, len(events))
		if r == chain.None {
			continue
		}
		run := &Run{
			ID:          a.nextRun,
			Host:        r,
			Dir:         ps.dir,
			StartRound:  a.round,
			Kind:        ps.kind,
			OpOrigin:    chain.None,
			OpTarget:    chain.None,
			PassTarget:  chain.None,
			justStarted: true,
		}
		a.nextRun++
		if ps.kind == StartCorner {
			run.Mode = ModeTraverse
			run.TraverseLeft = OpCTraverse
			run.OpOrigin = r
			// The next corner after the corner cut is the immediate
			// neighbour in moving direction.
			idx := a.ch.IndexOf(r)
			if idx >= 0 {
				run.OpTarget = a.ch.At(idx + ps.dir)
			}
		}
		a.runs = append(a.runs, run)
		starts = append(starts, StartEvent{
			RunID: run.ID, RobotID: a.ch.ID(r), Dir: ps.dir, Kind: ps.kind,
			Pair: ps.pair, Good: ps.good,
		})
	}
	sc.starts = starts
	rep.Starts = starts

	// Rebuild the run mask and counts, and audit occupancy: every run is
	// hosted on the chain by now, so the counts cover them all.
	a.indexRuns()
	for _, i := range a.runMaskSet {
		if a.runCount[i] > 2 {
			a.anomalies.TripleOccupancy++
		}
	}

	rep.ActiveRuns = len(a.runs)
	rep.ChainLen = a.ch.Len()
	rep.Gathered = a.ch.Gathered()
	rep.Anomalies = a.anomalies
	a.round++
	return rep, nil
}
