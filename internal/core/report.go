package core

import "gridgather/internal/chain"

// StartEvent records a run started this round (instrumentation).
type StartEvent struct {
	RunID   int
	RobotID int
	Dir     int
	Kind    StartKind
	// Pair identifies the run pair this start belongs to: the run started
	// in the same round at the other endpoint of the same quasi line
	// moving towards this one (paper §3.2). -1 when unpaired. Pair
	// identification is engine instrumentation for the Lemma 1/2
	// experiments; it does not influence any robot's behaviour.
	Pair int
	// Good reports whether the pair is a good pair (Fig 12): the outer
	// chain neighbours of the two quasi-line endpoints lie on the same
	// side. Meaningful only when Pair >= 0.
	Good bool
}

// EndEvent records a run terminated this round and why.
type EndEvent struct {
	RunID  int
	Reason TerminateReason
	// RobotID is the host robot at termination time.
	RobotID int
	// MergeRobot identifies, for TermMerge terminations, the first black
	// robot of the merge pattern the host took part in; -1 otherwise.
	// Together with the round it identifies "the merge" a run (and hence
	// its pair) enabled — the accounting of Lemma 2.
	MergeRobot int
}

// Anomalies counts defensive-path activations. All fields should stay zero
// on healthy executions; the test suite asserts tight bounds on them.
type Anomalies struct {
	// NotOnCorner counts normal-mode runs found mid-segment.
	NotOnCorner int
	// ShortAhead counts normal-mode runs at a corner with fewer than two
	// aligned robots ahead.
	ShortAhead int
	// HopConflicts counts suppressed hops: one per hop request the
	// collection refuses (a second hop on one robot — two runs, or a
	// runner or start hop on a robot that already hops), and one per hop
	// the edge-conflict fixpoint suppresses because it would leave an
	// incident edge outside the chain-edge set (DESIGN.md §3.6): runs
	// back to back after merge splices teleported their hosts, or, under
	// partial activation, a hop next to a sleeping robot. lintime
	// reports none.
	HopConflicts int
	// StuckRuns counts runs terminated by the TermStuck safeguard.
	StuckRuns int
	// LostAdvance counts runs whose advance target disappeared without a
	// reachable merge survivor.
	LostAdvance int
	// TripleOccupancy counts robots observed hosting three or more runs.
	TripleOccupancy int
}

// Add accumulates counts from another Anomalies value.
func (a *Anomalies) Add(b Anomalies) {
	a.NotOnCorner += b.NotOnCorner
	a.ShortAhead += b.ShortAhead
	a.HopConflicts += b.HopConflicts
	a.StuckRuns += b.StuckRuns
	a.LostAdvance += b.LostAdvance
	a.TripleOccupancy += b.TripleOccupancy
}

// Total sums all anomaly counts.
func (a Anomalies) Total() int {
	return a.NotOnCorner + a.ShortAhead + a.HopConflicts + a.StuckRuns +
		a.LostAdvance + a.TripleOccupancy
}

// RoundReport summarises one synchronous round.
type RoundReport struct {
	// Round is the index of the executed round (0-based).
	Round int
	// ChainLen is the number of robots after the round.
	ChainLen int
	// Gathered reports whether the chain fits a 2x2 square after the round.
	Gathered bool

	// MergePatterns is the number of merge patterns detected; MergeEvents
	// lists the robot removals they caused.
	MergePatterns int
	MergeEvents   []chain.MergeEvent

	// MergeHops and RunnerHops count robots that hopped for each cause;
	// StartHops counts corner-cut hops of run starts.
	MergeHops  int
	RunnerHops int
	StartHops  int

	// Starts and Ends list run lifecycle events of the round.
	Starts []StartEvent
	Ends   []EndEvent
	// ActiveRuns is the number of runs alive after the round.
	ActiveRuns int

	// Anomalies are the defensive-path counts for this round.
	Anomalies Anomalies
}

// Merges returns the number of robots removed this round.
func (r RoundReport) Merges() int { return len(r.MergeEvents) }
