package oracle

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// node is one robot of the model: a plain doubly-linked ring element.
type node struct {
	id         int
	pos        grid.Vec
	next, prev *node
	live       bool
}

// mrun is the model's run state, mirroring core.Run with node pointers in
// place of handles.
type mrun struct {
	id           int
	host         *node
	dir          int
	mode         core.RunMode
	traverseLeft int
	opOrigin     *node
	opTarget     *node
	passTarget   *node
	passBudget   int
	kind         core.StartKind
	justStarted  bool
}

// Model is the naive FSYNC simulator. Build one with NewModel; one Step
// call executes one synchronous round and reports it in the same
// core.RoundReport vocabulary as the engine, which is what Check compares.
type Model struct {
	cfg     core.Config
	head    *node
	byID    map[int]*node // every robot ever created, dead ones included
	n       int
	round   int
	runs    []*mrun // creation order, exactly like core.Algorithm
	nextRun int

	nextPair int

	// anomalies for the round being computed.
	anomalies core.Anomalies

	// fault is the defect CheckWithOptions armed (FaultNone outside the
	// self-tests), and faultFrom the round it takes effect from.
	fault     Fault
	faultFrom int
}

// Fault selects a deliberate defect the naive model injects into its own
// rounds, for the conformance self-tests: the oracle must catch an armed
// fault, and the shrinker must reduce its witness to a handful of robots.
// The lockstep comparison is symmetric, so a defect in the model is caught
// at exactly the round the same defect in the engine would be. The zero
// value is defect-free.
type Fault int

const (
	// FaultNone runs the model unmodified.
	FaultNone Fault = iota
	// FaultSkipMergeResolution skips the post-move merge resolution pass:
	// robots hop into co-location but are never spliced out of the ring,
	// the paper's progress operation silently stops shortening the chain.
	FaultSkipMergeResolution
	// FaultSkipSpikePriority disables the spike-priority suppression rule
	// (DESIGN.md §3.1): straight merge patterns whose blacks are the
	// whites of an executing spike hop anyway, re-introducing the
	// oscillation the rule exists to prevent.
	FaultSkipSpikePriority
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSkipMergeResolution:
		return "skip-merge-resolution"
	case FaultSkipSpikePriority:
		return "skip-spike-priority"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// faulty reports whether the armed defect is f and in effect this round.
func (m *Model) faulty(f Fault) bool { return m.fault == f && m.round >= m.faultFrom }

// NewModel builds a model of the given initial configuration. Robot IDs
// are assigned 0..n-1 in chain order, matching the engine's handle IDs for
// a chain built from the same positions.
func NewModel(positions []grid.Vec, cfg core.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := chain.ValidateInitial(positions); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, byID: make(map[int]*node), n: len(positions)}
	nodes := make([]*node, len(positions))
	for i, p := range positions {
		nodes[i] = &node{id: i, pos: p, live: true}
		m.byID[i] = nodes[i]
	}
	for i := range nodes {
		nodes[i].next = nodes[(i+1)%len(nodes)]
		nodes[i].prev = nodes[(i-1+len(nodes))%len(nodes)]
	}
	m.head = nodes[0]
	return m, nil
}

// ring returns the live robots in chain order, walking the pointer ring
// from the head — the model's answer to chain.Handles, recomputed from
// scratch on every call.
func (m *Model) ring() []*node {
	out := make([]*node, 0, m.n)
	cur := m.head
	for i := 0; i < m.n; i++ {
		out = append(out, cur)
		cur = cur.next
	}
	return out
}

// Len returns the live robot count.
func (m *Model) Len() int { return m.n }

// Round returns the number of rounds executed.
func (m *Model) Round() int { return m.round }

// Positions returns the configuration in chain order.
func (m *Model) Positions() []grid.Vec {
	ps := make([]grid.Vec, 0, m.n)
	for _, nd := range m.ring() {
		ps = append(ps, nd.pos)
	}
	return ps
}

// IDs returns the robot IDs in chain order.
func (m *Model) IDs() []int {
	ids := make([]int, 0, m.n)
	for _, nd := range m.ring() {
		ids = append(ids, nd.id)
	}
	return ids
}

// Bounds recomputes the bounding box by full scan.
func (m *Model) Bounds() grid.Box {
	var b grid.Box
	for _, nd := range m.ring() {
		b.Include(nd.pos)
	}
	return b
}

// Gathered reports the termination condition, recomputed from scratch.
func (m *Model) Gathered() bool { return m.Bounds().FitsSquare(2) }

// RunStates returns the model's live runs as core.RunState records in
// creation order (see RunState), for registry comparison.
func (m *Model) RunStates() []RunState {
	out := make([]RunState, 0, len(m.runs))
	for _, r := range m.runs {
		out = append(out, runState(r))
	}
	return out
}

// snapshotView materialises the ring into the ring-indexed slices
// view.Over expects: edges[i], the code of the edge from the robot at ring
// index i to the next one, coded from the model's own positions;
// order[i] = handle (== id) of the robot at ring index i; and runs, the
// run-direction mask (nil until runMask fills it). Rebuilt from scratch
// every round — full-rescan naivety is the point, and it keeps the
// engine's incrementally maintained edge codes checked, not shared.
type snapshotView struct {
	edges []grid.EdgeCode
	order []chain.Handle
	runs  []uint8
}

func (m *Model) materialise() snapshotView {
	var sv snapshotView
	for _, nd := range m.ring() {
		sv.edges = append(sv.edges, grid.EdgeOf(nd.next.pos.Sub(nd.pos)))
		sv.order = append(sv.order, chain.Handle(nd.id))
	}
	return sv
}

// runMask builds the ring-indexed run-direction mask by a full scan of the
// run list: a bit per direction of every run hosted on the robot at each
// ring index, excluding runs started this very round (FSYNC visibility).
// It shares nothing with the engine's end-of-round mask rebuild.
func (m *Model) runMask() []uint8 {
	nodes := m.ring()
	mask := make([]uint8, len(nodes))
	for i, nd := range nodes {
		for _, r := range m.runs {
			if r.host == nd && !r.justStarted {
				mask[i] |= view.RunBit(r.dir)
			}
		}
	}
	return mask
}

// viewAt builds the model's local view of ring index i with viewing path
// length v.
func (m *Model) viewAt(sv snapshotView, i, v int) *view.Snapshot {
	s := new(view.Snapshot)
	view.Over(s, sv.edges, sv.order, i, v, sv.runs)
	return s
}

// ---- merge planning --------------------------------------------------------

// mpattern is the model's merge pattern: the nodes involved, found by full
// rescans of the ring.
type mpattern struct {
	blacks []*node
	before *node // white preceding the blacks
	after  *node // white following the blacks
	hop    grid.Vec
}

// detectMerges finds every merge pattern (paper Fig 2) by scanning the
// ring robot by robot: spikes (k = 1 reversals) first in ring order, then
// straight subchains flanked by an anti-parallel perpendicular edge pair,
// in ring order of their first black. The scan re-derives every edge from
// positions on the fly.
func (m *Model) detectMerges() []mpattern {
	nodes := m.ring()
	n := len(nodes)
	if n < 3 {
		return nil
	}
	edge := func(i int) grid.Vec { // edge leaving ring index i
		return nodes[(i+1)%n].pos.Sub(nodes[i].pos)
	}
	var pats []mpattern

	// Spikes: a single-robot direction reversal.
	for i := 0; i < n; i++ {
		in := edge((i - 1 + n) % n)
		out := edge(i)
		if in.IsAxisUnit() && out == in.Neg() {
			pats = append(pats, mpattern{
				blacks: []*node{nodes[i]},
				before: nodes[(i-1+n)%n],
				after:  nodes[(i+1)%n],
				hop:    out,
			})
		}
	}

	// Straight patterns k >= 2: maximal equal-edge runs, enumerated from
	// the first direction change on. No run starts before it, so this is
	// the ascending ring order of the engine's merge scan.
	start := -1
	for i := 0; i < n; i++ {
		if edge(i) != edge((i-1+n)%n) {
			start = i
			break
		}
	}
	if start < 0 {
		return pats // all edges equal: impossible for a closed chain
	}
	for counted, i := 0, start; counted < n; {
		dir := edge(i)
		l := 1
		for counted+l < n && edge((i+l)%n) == dir {
			l++
		}
		k := l + 1 // robots in the straight segment
		if k >= 2 && k <= m.cfg.MaxMergeLen && k+2 <= n {
			before := edge((i - 1 + n) % n) // white1 -> first black
			after := edge((i + l) % n)      // last black -> white2
			if after.IsAxisUnit() && after == before.Neg() && after.Perp(dir) {
				blacks := make([]*node, 0, k)
				for j := 0; j < k; j++ {
					blacks = append(blacks, nodes[(i+j)%n])
				}
				pats = append(pats, mpattern{
					blacks: blacks,
					before: nodes[(i-1+n)%n],
					after:  nodes[(i+l+1)%n],
					hop:    after,
				})
			}
		}
		i = (i + l) % n
		counted += l
	}
	return pats
}

// planMerges applies the spike-priority rule (DESIGN.md §3.1) and combines
// the executing patterns' hops, all with plain maps.
type mergePlan struct {
	patterns []mpattern
	hops     map[*node]grid.Vec
	// hopOrder records first-insertion order of the hops — executing
	// patterns only, in pattern order. The move order matters: it is the
	// seed order of merge resolution, which decides which co-located pair
	// survives when the chain collapses to its final two robots.
	hopOrder     []*node
	participants map[*node]bool
}

func (m *Model) planMerges() (mergePlan, error) {
	plan := mergePlan{
		patterns:     m.detectMerges(),
		hops:         make(map[*node]grid.Vec),
		participants: make(map[*node]bool),
	}
	spikeWhites := make(map[*node]bool)
	for _, pat := range plan.patterns {
		if len(pat.blacks) == 1 {
			spikeWhites[pat.before] = true
			spikeWhites[pat.after] = true
		}
	}
	for _, pat := range plan.patterns {
		plan.participants[pat.before] = true
		plan.participants[pat.after] = true
		for _, b := range pat.blacks {
			plan.participants[b] = true
		}
		if len(pat.blacks) > 1 && !m.faulty(FaultSkipSpikePriority) {
			tainted := false
			for _, b := range pat.blacks {
				if spikeWhites[b] {
					tainted = true
					break
				}
			}
			if tainted {
				continue // suppressed for this round
			}
		}
		for _, b := range pat.blacks {
			prev, seen := plan.hops[b]
			if (pat.hop.X != 0 && prev.X != 0) || (pat.hop.Y != 0 && prev.Y != 0) {
				return plan, fmt.Errorf("oracle: conflicting merge hops %v and %v on robot %d", prev, pat.hop, b.id)
			}
			plan.hops[b] = prev.Add(pat.hop)
			if !seen {
				plan.hopOrder = append(plan.hopOrder, b)
			}
		}
	}
	return plan, nil
}

// ---- run decisions ---------------------------------------------------------

// mdecision mirrors core's runDecision for one model run.
type mdecision struct {
	run        *mrun
	frozen     bool
	terminate  bool
	reason     core.TerminateReason
	mergeRobot int
	hop        grid.Vec
	advanceTo  *node

	newMode         core.RunMode
	newTraverseLeft int
	newOpOrigin     *node
	newOpTarget     *node
	newPassTarget   *node
	newPassBudget   int
}

// ringIndexOf returns the ring index of nd, or -1 — by full scan.
func (m *Model) ringIndexOf(nd *node) int {
	if !nd.live {
		return -1
	}
	for i, cur := range m.ring() {
		if cur == nd {
			return i
		}
	}
	return -1
}

// approachingRunAt returns the first run (in creation order) hosted on the
// robot with the given id that moves towards the observer, excluding runs
// started this round — mirroring the engine's registry lookup.
func (m *Model) approachingRunAt(id, dir int) *mrun {
	for _, r := range m.runs {
		if r.host.id == id && r.dir == -dir && !r.justStarted {
			return r
		}
	}
	return nil
}

// decideRun evaluates the per-round runner rule (Fig 15 step 2, Table 1)
// for one run: the same decision pipeline as core.computeRunDecision,
// re-implemented over the model's state.
func (m *Model) decideRun(sv snapshotView, run *mrun, plan mergePlan) mdecision {
	d := mdecision{
		run:             run,
		mergeRobot:      -1,
		newMode:         run.mode,
		newTraverseLeft: run.traverseLeft,
		newOpOrigin:     run.opOrigin,
		newOpTarget:     run.opTarget,
		newPassTarget:   run.passTarget,
		newPassBudget:   run.passBudget,
	}
	idx := m.ringIndexOf(run.host)
	if idx < 0 {
		d.terminate, d.reason = true, core.TermHostRemoved
		return d
	}
	s := m.viewAt(sv, idx, m.cfg.ViewingPathLength)
	dir := run.dir
	scanMax := min(m.cfg.ViewingPathLength, m.n-1)

	// Table 1.3 — merge participation.
	if plan.participants[run.host] {
		d.terminate, d.reason = true, core.TermMerge
		d.mergeRobot = m.patternOf(idx, dir, plan)
		return d
	}

	endOff, endSeen := core.EndpointAhead(s, dir)

	// Table 1.1 — sequent run ahead on the same quasi line.
	seqMax := scanMax
	if endSeen {
		seqMax = min(seqMax, endOff-1)
	}
	for j := 1; j <= seqMax; j++ {
		if s.HasRunAway(j * dir) {
			d.terminate, d.reason = true, core.TermSequentRun
			return d
		}
	}

	// Table 1.4 / 1.5 — operation target removed by a merge.
	if run.mode == core.ModePassing && run.passTarget != nil && !run.passTarget.live {
		d.terminate, d.reason = true, core.TermPassTargetGone
		return d
	}
	if run.mode == core.ModeTraverse && run.opTarget != nil && !run.opTarget.live {
		d.terminate, d.reason = true, core.TermOpTargetGone
		return d
	}

	// Table 1.2 — endpoint visible with no approaching run.
	if endSeen {
		window := max(endOff, core.PassingTriggerDistance)
		window = min(window, scanMax)
		approaching := false
		for j := 1; j <= window; j++ {
			if s.HasRunTowards(j * dir) {
				approaching = true
				break
			}
		}
		if !approaching {
			d.terminate, d.reason = true, core.TermEndpoint
			return d
		}
	}

	// The run survives and advances one robot.
	if dir > 0 {
		d.advanceTo = run.host.next
	} else {
		d.advanceTo = run.host.prev
	}

	// Passing continuation.
	if run.mode == core.ModePassing {
		d.newPassBudget--
		if d.newPassBudget < 0 {
			d.terminate, d.reason = true, core.TermStuck
		}
		return d
	}

	// Passing trigger: approaching run within distance 3.
	trigger := min(core.PassingTriggerDistance, scanMax)
	for j := 1; j <= trigger; j++ {
		partner := m.approachingRunAt(int(s.Robot(j*dir)), dir)
		if partner == nil {
			continue
		}
		d.newMode = core.ModePassing
		d.newPassBudget = 2 * m.cfg.ViewingPathLength
		if run.mode == core.ModeTraverse {
			d.newPassTarget = run.opTarget
		} else if partner.mode == core.ModeTraverse && partner.opOrigin != nil {
			d.newPassTarget = partner.opOrigin
		} else {
			d.newPassTarget = partner.host
		}
		d.newTraverseLeft, d.newOpOrigin, d.newOpTarget = 0, nil, nil
		return d
	}

	// Traverse continuation.
	if run.mode == core.ModeTraverse {
		d.newTraverseLeft--
		if d.newTraverseLeft <= 0 {
			d.newMode = core.ModeNormal
			d.newTraverseLeft, d.newOpOrigin, d.newOpTarget = 0, nil, nil
		}
		return d
	}

	// Normal mode: reshapement at a corner (Fig 11). A corner is a robot
	// whose trailing edge is perpendicular to its leading edge.
	if !s.Edge(0, -dir).Perp(s.Edge(0, dir)) {
		m.anomalies.NotOnCorner++
		return d
	}
	switch sa := s.AlignedAhead(dir); {
	case sa >= 3:
		d.hop = s.Edge(0, dir).Vec().Add(s.Edge(0, -dir).Vec())
	case sa == 2:
		d.newMode = core.ModeTraverse
		d.newTraverseLeft = core.OpBTraverse - 1
		d.newOpOrigin = run.host
		d.newOpTarget = m.byID[int(s.Robot(core.OpBTraverse*dir))]
	default:
		m.anomalies.ShortAhead++
	}
	return d
}

// patternOf identifies the merge pattern a terminating run died into, as
// the ID of its first black robot — the engine's Lemma 2 accounting,
// re-derived over the model's pattern list.
func (m *Model) patternOf(idx, dir int, plan mergePlan) int {
	nodes := m.ring()
	n := len(nodes)
	at := func(i int) *node { return nodes[((i%n)+n)%n] }
	covers := func(pat mpattern, target int) bool {
		// The pattern covers its whites and blacks: first black - 1 ..
		// first black + len(blacks).
		for j := -1; j <= len(pat.blacks); j++ {
			cand := pat.blacks[0]
			switch {
			case j < 0:
				cand = pat.before
			case j == len(pat.blacks):
				cand = pat.after
			default:
				cand = pat.blacks[j]
			}
			if cand == at(target) {
				return true
			}
		}
		return false
	}
	fallback := -1
	for _, pat := range plan.patterns {
		if !covers(pat, idx) {
			continue
		}
		if covers(pat, idx+dir) {
			return pat.blacks[0].id
		}
		if fallback == -1 {
			fallback = pat.blacks[0].id
		}
	}
	return fallback
}

// ---- run starts ------------------------------------------------------------

// mpending is a run about to start this round.
type mpending struct {
	robot *node
	idx   int
	dir   int
	kind  core.StartKind
	pair  int
	good  bool
}

// pairStarts annotates pending starts with their pair IDs and goodness,
// mirroring the engine's instrumentation walk with unbounded views.
func (m *Model) pairStarts(sv snapshotView, pending []mpending) {
	if len(pending) < 2 {
		return
	}
	nodes := m.ring()
	n := len(nodes)
	byKey := make(map[[2]int]int)
	for i, p := range pending {
		byKey[[2]int{p.idx, p.dir}] = i
	}
	for i := range pending {
		p := &pending[i]
		if p.pair >= 0 {
			continue
		}
		s := m.viewAt(sv, p.idx, n-1)
		endOff, ok := core.EndpointAhead(s, p.dir)
		if !ok || endOff == 0 {
			continue
		}
		endIdx := ((p.idx+p.dir*endOff)%n + n) % n
		j, found := byKey[[2]int{endIdx, -p.dir}]
		if !found || pending[j].pair >= 0 {
			continue
		}
		q := &pending[j]
		id := m.nextPair
		m.nextPair++
		p.pair, q.pair = id, id
		at := func(k int) *node { return nodes[((k%n)+n)%n] }
		outerP := at(p.idx - p.dir).pos.Sub(at(p.idx).pos)
		outerQ := at(endIdx + p.dir).pos.Sub(at(endIdx).pos)
		p.good = outerP == outerQ
		q.good = p.good
	}
}

// ---- merge resolution ------------------------------------------------------

// unlink splices nd out of the ring, replicating the engine chain's head
// rule: removing the head robot makes its successor the new head.
func (m *Model) unlink(nd *node) {
	nd.prev.next = nd.next
	nd.next.prev = nd.prev
	nd.live = false
	m.n--
	if m.head == nd {
		m.head = nd.next
	}
}

// resolveMerges removes co-located chain neighbours: for every robot that
// moved this round (in move order), walk back to the start of its
// co-located cluster and reduce the cluster front to back, smaller ID
// surviving each pair, until only two robots remain chain-wide.
//
// The seed order must be the engine's move order, not a head-first
// rescan: when the chain collapses to its final two robots mid-
// resolution, the processing order decides which co-located pair is still
// standing when the n = 2 cut-off stops further splicing — a genuine
// order sensitivity of the round semantics, so the model must follow the
// same order to be comparable. Within a cluster the reduction order is
// fully determined, and co-location requires a mover, so seeding by the
// movers loses no merges (the engine's argument, re-walked here with
// plain pointers).
func (m *Model) resolveMerges(moved []*node) []chain.MergeEvent {
	if m.faulty(FaultSkipMergeResolution) {
		return nil
	}
	var events []chain.MergeEvent
	for _, sd := range moved {
		if m.n <= 2 {
			break
		}
		if !sd.live {
			continue // merged away while processing an earlier seed
		}
		start := sd
		for steps := 0; start.prev.pos == start.pos && steps < m.n; steps++ {
			start = start.prev
		}
		cur := start
		for m.n > 2 {
			nx := cur.next
			if cur.pos != nx.pos {
				break
			}
			surv, rem := cur, nx
			if surv.id > rem.id {
				surv, rem = rem, surv
			}
			m.unlink(rem)
			events = append(events, chain.MergeEvent{
				Survivor: chain.Handle(surv.id),
				Removed:  chain.Handle(rem.id),
				Pos:      surv.pos,
			})
			cur = surv
		}
	}
	return events
}

// resolveAlive follows merge survivor links until a live robot is found.
func resolveAlive(nd *node, survivorOf map[*node]*node) *node {
	for hops := 0; nd != nil && !nd.live; hops++ {
		if hops > len(survivorOf) {
			return nil
		}
		next, ok := survivorOf[nd]
		if !ok {
			return nil
		}
		nd = next
	}
	return nd
}

// ---- the round -------------------------------------------------------------

// Step executes one fully synchronous round, mirroring core.Algorithm.Step
// phase by phase, and reports it in the engine's report vocabulary (handles
// in the report are the model's robot IDs, which equal the engine's
// handles).
func (m *Model) Step() (core.RoundReport, error) { return m.StepActivated(nil) }

// activeAt mirrors core's nil-means-FSYNC activation lookup.
func activeAt(active []bool, i int) bool {
	return active == nil || (i >= 0 && i < len(active) && active[i])
}

// StepActivated executes one round under a partial activation set, the
// model's re-implementation of core.Algorithm.StepActivated: sleeping
// robots (by ring index) keep their position, start nothing, skip their
// merge hops, and freeze their hosted runs. A nil set is FSYNC and runs
// exactly like a set with every entry true.
func (m *Model) StepActivated(active []bool) (core.RoundReport, error) {
	rep := core.RoundReport{Round: m.round}
	if m.Gathered() {
		rep.ChainLen = m.n
		rep.Gathered = true
		return rep, nil
	}
	if active != nil && len(active) != m.n {
		return rep, fmt.Errorf("oracle: activation set has %d entries for %d robots", len(active), m.n)
	}
	m.anomalies = core.Anomalies{}
	sv := m.materialise()

	// ---- Look & compute: merge plan, run decisions, run starts.
	plan, err := m.planMerges()
	if err != nil {
		return rep, err
	}
	rep.MergePatterns = len(plan.patterns)

	for _, run := range m.runs {
		run.justStarted = false
	}
	sv.runs = m.runMask()
	decisions := make([]mdecision, 0, len(m.runs))
	for _, run := range m.runs {
		if !activeAt(active, m.ringIndexOf(run.host)) {
			decisions = append(decisions, mdecision{run: run, frozen: true})
			continue
		}
		decisions = append(decisions, m.decideRun(sv, run, plan))
	}

	var pending []mpending
	startHops := make(map[*node]grid.Vec)
	startHopOrder := []*node{}
	if !m.cfg.DisableRunStarts &&
		m.round%m.cfg.RunPeriod == 0 && m.n >= core.MinChainForRuns &&
		(!m.cfg.SequentialRuns || len(m.runs) == 0) {
		for i, nd := range m.ring() {
			if !activeAt(active, i) {
				continue // sleeping robots look at nothing and start nothing
			}
			if plan.participants[nd] {
				continue
			}
			s := m.viewAt(sv, i, m.cfg.ViewingPathLength)
			spec, ok := core.DetectStart(s)
			if !ok {
				continue
			}
			hosted := 0
			for _, r := range m.runs {
				if r.host == nd {
					hosted++
				}
			}
			if hosted+len(spec.Dirs) > 2 {
				continue
			}
			for _, dir := range spec.Dirs {
				pending = append(pending, mpending{robot: nd, idx: i, dir: dir, kind: spec.Kind, pair: -1})
			}
			if !spec.Hop.IsZero() {
				startHops[nd] = spec.Hop
				startHopOrder = append(startHopOrder, nd)
			}
		}
		m.pairStarts(sv, pending)
	}

	// ---- Move: collect hops with the engine's conflict rules, apply
	// simultaneously.
	hops := make(map[*node]grid.Vec)
	var hopOrder []*node
	for _, b := range plan.hopOrder {
		if !activeAt(active, m.ringIndexOf(b)) {
			continue // sleeping blacks execute no merge hop
		}
		hops[b] = plan.hops[b]
		hopOrder = append(hopOrder, b)
	}
	rep.MergeHops = len(hops)
	runnerHop := make(map[*node]bool)
	for i := range decisions {
		d := &decisions[i]
		if d.terminate || d.hop.IsZero() {
			continue
		}
		r := d.run.host
		_, hasHop := hops[r]
		if hasHop || runnerHop[r] {
			m.anomalies.HopConflicts++
			if runnerHop[r] && hasHop {
				// Two runner hops: both suppressed, and the first one's
				// count is retracted.
				delete(hops, r)
				rep.RunnerHops--
			}
			continue
		}
		hops[r] = d.hop
		hopOrder = append(hopOrder, r)
		runnerHop[r] = true
		rep.RunnerHops++
	}
	for _, r := range startHopOrder {
		if _, hasHop := hops[r]; hasHop {
			m.anomalies.HopConflicts++
			continue
		}
		hops[r] = startHops[r]
		hopOrder = append(hopOrder, r)
		rep.StartHops++
	}
	// Edge-conflict suppression, written edge-first: mark both endpoints
	// of every ring edge the live hops would make illegal, delete the
	// marked hops together, and repeat until every edge is legal. The rule
	// is the same for every activation set and every hop class; a deleted
	// hop leaves the counter of its class and counts one hop conflict.
	for suppressed := true; suppressed; {
		nodes := m.ring()
		marked := make([]bool, len(nodes))
		for i, nd := range nodes {
			j := (i + 1) % len(nodes)
			nx := nodes[j]
			if !nx.pos.Add(hops[nx]).Sub(nd.pos.Add(hops[nd])).IsChainEdge() {
				marked[i], marked[j] = true, true
			}
		}
		suppressed = false
		for i, nd := range nodes {
			if _, live := hops[nd]; !marked[i] || !live {
				continue
			}
			delete(hops, nd)
			_, start := startHops[nd]
			switch {
			case runnerHop[nd]:
				rep.RunnerHops--
			case start:
				rep.StartHops--
			default:
				rep.MergeHops--
			}
			m.anomalies.HopConflicts++
			suppressed = true
		}
	}
	var moved []*node
	for _, r := range hopOrder {
		h, ok := hops[r]
		if !ok {
			continue // suppressed above
		}
		if !h.IsKingStep() {
			return rep, fmt.Errorf("oracle: robot %d would hop %v (not a king step)", r.id, h)
		}
		r.pos = r.pos.Add(h)
		moved = append(moved, r)
	}
	// Full-chain edge check (the naive equivalent of CheckEdgesAround).
	nodes := m.ring()
	for i, nd := range nodes {
		d := nodes[(i+1)%len(nodes)].pos.Sub(nd.pos)
		if !d.IsChainEdge() {
			return rep, fmt.Errorf("oracle: chain broke in round %d: edge %d..%d is %v", m.round, i, (i+1)%len(nodes), d)
		}
	}

	// ---- Merge resolution seeded by the movers, in move order.
	events := m.resolveMerges(moved)
	rep.MergeEvents = events
	survivorOf := make(map[*node]*node)
	for _, ev := range events {
		survivorOf[m.byID[int(ev.Removed)]] = m.byID[int(ev.Survivor)]
	}

	// ---- Apply run decisions.
	var ends []core.EndEvent
	alive := m.runs[:0:0] // fresh slice: the model reuses nothing
	for i := range decisions {
		d := &decisions[i]
		run := d.run
		if d.frozen {
			// Mirror of the engine's frozen-run rule: a sleeping host keeps
			// its runs, but a host merged away by an active neighbour is
			// chased along the survivor links.
			if !run.host.live {
				host := resolveAlive(run.host, survivorOf)
				if host == nil {
					ends = append(ends, core.EndEvent{
						RunID: run.id, Reason: core.TermHostRemoved,
						RobotID: run.host.id, MergeRobot: -1,
					})
					m.anomalies.LostAdvance++
					continue
				}
				run.host = host
			}
			alive = append(alive, run)
			continue
		}
		if d.terminate {
			ends = append(ends, core.EndEvent{
				RunID: run.id, Reason: d.reason,
				RobotID: run.host.id, MergeRobot: d.mergeRobot,
			})
			if d.reason == core.TermStuck {
				m.anomalies.StuckRuns++
			}
			continue
		}
		next := resolveAlive(d.advanceTo, survivorOf)
		if next == nil {
			ends = append(ends, core.EndEvent{
				RunID: run.id, Reason: core.TermStuck,
				RobotID: run.host.id, MergeRobot: -1,
			})
			m.anomalies.LostAdvance++
			continue
		}
		run.host = next
		run.mode = d.newMode
		run.traverseLeft = d.newTraverseLeft
		run.opOrigin = d.newOpOrigin
		run.opTarget = d.newOpTarget
		run.passTarget = d.newPassTarget
		run.passBudget = d.newPassBudget
		if run.mode == core.ModePassing && run.host == run.passTarget {
			run.mode = core.ModeNormal
			run.passTarget = nil
			run.passBudget = 0
		}
		alive = append(alive, run)
	}
	m.runs = alive
	rep.Ends = ends

	// ---- Materialise run starts.
	var starts []core.StartEvent
	for _, ps := range pending {
		r := resolveAlive(ps.robot, survivorOf)
		if r == nil {
			continue
		}
		run := &mrun{
			id:          m.nextRun,
			host:        r,
			dir:         ps.dir,
			kind:        ps.kind,
			justStarted: true,
		}
		m.nextRun++
		if ps.kind == core.StartCorner {
			run.mode = core.ModeTraverse
			run.traverseLeft = core.OpCTraverse
			run.opOrigin = r
			if r.live {
				if ps.dir > 0 {
					run.opTarget = r.next
				} else {
					run.opTarget = r.prev
				}
			}
		}
		m.runs = append(m.runs, run)
		starts = append(starts, core.StartEvent{
			RunID: run.id, RobotID: r.id, Dir: ps.dir, Kind: ps.kind,
			Pair: ps.pair, Good: ps.good,
		})
	}
	rep.Starts = starts

	// ---- Occupancy audit by full rescan.
	occupancy := make(map[*node]int)
	for _, run := range m.runs {
		occupancy[run.host]++
	}
	for _, c := range occupancy {
		if c > 2 {
			m.anomalies.TripleOccupancy++
		}
	}

	rep.ActiveRuns = len(m.runs)
	rep.ChainLen = m.n
	rep.Gathered = m.Gathered()
	rep.Anomalies = m.anomalies
	m.round++
	return rep, nil
}

// RunState is the comparable projection of one run's full state, shared by
// the engine and the model for registry comparison.
type RunState struct {
	ID           int
	Host         int
	Dir          int
	Mode         core.RunMode
	TraverseLeft int
	OpOrigin     int // robot ID, -1 when unset
	OpTarget     int
	PassTarget   int
	PassBudget   int
}

func nodeID(nd *node) int {
	if nd == nil {
		return -1
	}
	return nd.id
}

func runState(r *mrun) RunState {
	return RunState{
		ID: r.id, Host: r.host.id, Dir: r.dir, Mode: r.mode,
		TraverseLeft: r.traverseLeft,
		OpOrigin:     nodeID(r.opOrigin), OpTarget: nodeID(r.opTarget),
		PassTarget: nodeID(r.passTarget), PassBudget: r.passBudget,
	}
}

// engineRunState projects a core.Run into the shared form.
func engineRunState(r *core.Run) RunState {
	h := func(h chain.Handle) int {
		if h == chain.None {
			return -1
		}
		return int(h)
	}
	return RunState{
		ID: r.ID, Host: int(r.Host), Dir: r.Dir, Mode: r.Mode,
		TraverseLeft: r.TraverseLeft,
		OpOrigin:     h(r.OpOrigin), OpTarget: h(r.OpTarget),
		PassTarget: h(r.PassTarget), PassBudget: r.PassBudget,
	}
}
