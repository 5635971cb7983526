package sim

import (
	"fmt"
	"sort"

	"gridgather/internal/core"
)

// PairRecord follows one run pair (two runs started simultaneously at the
// endpoints of one quasi line, paper §3.2) from start to resolution. It is
// the unit of accounting of Lemmas 1 and 2.
type PairRecord struct {
	ID         int
	StartRound int
	// Good: the outer neighbours of the pair's endpoints lie on the same
	// side (Fig 12) — good pairs enable merges.
	Good bool
	// Progress: a good pair started while no merge had happened during
	// the previous L-1 rounds nor in the start round (paper §5: such
	// pairs carry the progress argument of Theorem 1).
	Progress bool
	// MergeRound is the round in which a run of this pair terminated as a
	// merge participant (-1 if none yet); MergeKey identifies that merge
	// pattern (round, first-black robot ID) for the distinctness claim of
	// Lemma 2.b.
	MergeRound int
	MergeKey   [2]int
	// EndsSeen counts terminated member runs (resolved at 2).
	EndsSeen int
}

// PairStats aggregates the pair accounting of one simulation.
type PairStats struct {
	PairsStarted int
	GoodPairs    int
	// ProgressPairs counts progress pairs; ProgressMerged those that
	// enabled a merge (Lemma 2.a predicts all of them, given enough
	// rounds); ProgressUnresolved those still alive at gathering time
	// (they never got the n rounds the lemma grants them).
	ProgressPairs      int
	ProgressMerged     int
	ProgressUnresolved int
	// CreditConflicts counts distinct progress pairs whose merge credit
	// collided on the same merge pattern — Lemma 2.b predicts zero.
	CreditConflicts int
	// Lemma1Windows counts run-start rounds on a large-enough chain;
	// Lemma1Violations counts windows with neither a merge in the
	// preceding L rounds nor a new good pair — Lemma 1 predicts zero.
	Lemma1Windows    int
	Lemma1Violations int
}

// pairTracker consumes round reports and maintains the accounting.
type pairTracker struct {
	period    int
	minChain  int
	pairs     map[int]*PairRecord
	runToPair map[int]*PairRecord
	creditors map[[2]int]int // merge key -> pair ID of first creditor
	lastMerge int            // round of the most recent merge, -1 initially
	stats     PairStats
}

func newPairTracker(period int) *pairTracker {
	return &pairTracker{
		period:    period,
		minChain:  core.MinChainForRuns,
		pairs:     make(map[int]*PairRecord),
		runToPair: make(map[int]*PairRecord),
		creditors: make(map[[2]int]int),
		lastMerge: -1,
	}
}

// observe processes one round report. chainLenBefore is the chain length
// at the start of the round (run starts are gated on it).
func (t *pairTracker) observe(rep core.RoundReport, chainLenBefore int) {
	round := rep.Round
	mergedNow := rep.Merges() > 0
	// "No merge during the last L-1 rounds and the current one".
	mergeFree := !mergedNow && (t.lastMerge == -1 || round-t.lastMerge >= t.period)

	goodStarted := false
	for _, s := range rep.Starts {
		if s.Pair < 0 {
			continue
		}
		rec, ok := t.pairs[s.Pair]
		if !ok {
			rec = &PairRecord{
				ID:         s.Pair,
				StartRound: round,
				Good:       s.Good,
				Progress:   s.Good && mergeFree,
				MergeRound: -1,
			}
			t.pairs[s.Pair] = rec
			t.stats.PairsStarted++
			if rec.Good {
				t.stats.GoodPairs++
				goodStarted = true
			}
			if rec.Progress {
				t.stats.ProgressPairs++
			}
		}
		// Every start carries a fresh run ID, so no entry is overwritten.
		t.runToPair[s.RunID] = rec
	}

	// Lemma 1 audit at run-start rounds on large enough, ungathered
	// chains: a merge within the window or a new good pair.
	if round%t.period == 0 && chainLenBefore >= t.minChain && !rep.Gathered {
		t.stats.Lemma1Windows++
		if mergeFree && !goodStarted {
			t.stats.Lemma1Violations++
		}
	}

	for _, e := range rep.Ends {
		rec, ok := t.runToPair[e.RunID]
		if !ok {
			continue
		}
		rec.EndsSeen++
		if e.Reason == core.TermMerge && rec.MergeRound < 0 {
			rec.MergeRound = round
			rec.MergeKey = [2]int{round, e.MergeRobot}
			if rec.Progress {
				t.stats.ProgressMerged++
				if first, dup := t.creditors[rec.MergeKey]; dup && first != rec.ID {
					t.stats.CreditConflicts++
				} else {
					t.creditors[rec.MergeKey] = rec.ID
				}
			}
		}
	}

	if mergedNow {
		t.lastMerge = round
	}
}

// finish computes the end-of-simulation statistics. It never mutates the
// tracker, so it is idempotent: the run lifecycle calls it on every exit
// path and again for mid-run checkpoints, and repeated calls must not
// double-count unresolved pairs.
func (t *pairTracker) finish() PairStats {
	stats := t.stats
	for _, rec := range t.pairs {
		if rec.Progress && rec.MergeRound < 0 {
			stats.ProgressUnresolved++
		}
	}
	return stats
}

// trackerState is the serialisable form of a pairTracker (checkpoint
// codec, DESIGN.md §11). The map-backed state is flattened into
// deterministically sorted slices so encoding the same engine state twice
// yields identical bytes.
type trackerState struct {
	// Pairs holds every pair record, sorted by pair ID.
	Pairs []PairRecord `json:"pairs,omitempty"`
	// RunPairs lists (run ID, pair ID) membership edges, sorted by run ID.
	RunPairs [][2]int `json:"runPairs,omitempty"`
	// Creditors lists (merge round, merge robot, creditor pair ID)
	// triples, sorted by round then robot.
	Creditors [][3]int  `json:"creditors,omitempty"`
	LastMerge int       `json:"lastMerge"`
	Stats     PairStats `json:"stats"`
}

// snapshot flattens the tracker. The records are copied by value — the
// snapshot shares no memory with the live tracker.
func (t *pairTracker) snapshot() trackerState {
	s := trackerState{
		Pairs:     make([]PairRecord, 0, len(t.pairs)),
		RunPairs:  make([][2]int, 0, len(t.runToPair)),
		Creditors: make([][3]int, 0, len(t.creditors)),
		LastMerge: t.lastMerge,
		Stats:     t.stats,
	}
	for _, rec := range t.pairs {
		s.Pairs = append(s.Pairs, *rec)
	}
	sort.Slice(s.Pairs, func(i, j int) bool { return s.Pairs[i].ID < s.Pairs[j].ID })
	for runID, rec := range t.runToPair {
		s.RunPairs = append(s.RunPairs, [2]int{runID, rec.ID})
	}
	sort.Slice(s.RunPairs, func(i, j int) bool { return s.RunPairs[i][0] < s.RunPairs[j][0] })
	for key, id := range t.creditors {
		s.Creditors = append(s.Creditors, [3]int{key[0], key[1], id})
	}
	sort.Slice(s.Creditors, func(i, j int) bool {
		a, b := s.Creditors[i], s.Creditors[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	return s
}

// restore replaces the tracker's state with the snapshot's, rebuilding the
// record-identity aliasing (runToPair entries point at the same records
// pairs holds) that observe relies on. It validates the referential claims
// the snapshot makes; the checkpoint layer wraps failures in
// ErrCheckpointCorrupt.
func (t *pairTracker) restore(s trackerState) error {
	pairs := make(map[int]*PairRecord, len(s.Pairs))
	for i := range s.Pairs {
		rec := s.Pairs[i]
		if _, dup := pairs[rec.ID]; dup {
			return fmt.Errorf("pair tracker: duplicate pair %d", rec.ID)
		}
		pairs[rec.ID] = &rec
	}
	runToPair := make(map[int]*PairRecord, len(s.RunPairs))
	for _, rp := range s.RunPairs {
		rec, ok := pairs[rp[1]]
		if !ok {
			return fmt.Errorf("pair tracker: run %d maps to unknown pair %d", rp[0], rp[1])
		}
		if _, dup := runToPair[rp[0]]; dup {
			return fmt.Errorf("pair tracker: run %d mapped twice", rp[0])
		}
		runToPair[rp[0]] = rec
	}
	creditors := make(map[[2]int]int, len(s.Creditors))
	for _, c := range s.Creditors {
		creditors[[2]int{c[0], c[1]}] = c[2]
	}
	t.pairs, t.runToPair, t.creditors = pairs, runToPair, creditors
	t.lastMerge = s.LastMerge
	t.stats = s.Stats
	return nil
}
