package sim

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/grid"
)

// RoundState is what one invariant sees after a round: the chain and runs
// the round left, its report, and the cross-round context — the box and
// positions before the round (Begin records them), merge recency (Check
// keeps it), and the configuration and start size the round loop sets.
type RoundState struct {
	Chain  *chain.Chain
	Runs   []*core.Run
	Report core.RoundReport
	Cfg    core.Config

	// InitialLen is the robot count of the start configuration.
	InitialLen int
	// PrevBounds is the bounding box before this round; Empty until Begin
	// has run.
	PrevBounds grid.Box
	// LastMergeRound is the most recent round with a merge before this
	// one, -1 if none has happened yet.
	LastMergeRound int

	// prevPos holds every live robot's position before this round, and
	// occupancy counts the runs each robot hosts: flat per-handle tables
	// with O(1) generation clearing (DESIGN.md §5/§6).
	prevPos   chain.Scratch[grid.Vec]
	occupancy chain.Scratch[int]
}

// Invariant is one named check of the model's rules. A non-nil error is a
// violation; the round loop attributes it to the round.
type Invariant struct {
	Name  string
	Check func(*RoundState) error
	// FSYNCOnly marks invariants whose premise holds only under fully
	// synchronous activation (the progress lemmas and the Theorem 1 cap).
	// The oracle skips them under non-FSYNC schedulers.
	FSYNCOnly bool
	// PaperOnly marks invariants whose premise is the paper strategy's
	// run machinery (Lemma 1's good-pair windows, Theorem 1's round cap).
	// The oracle skips them when checking another strategy.
	PaperOnly bool
}

// safety is the battery Options.CheckInvariants runs, in checking order.
var safety = []Invariant{
	{Name: "ring-integrity", Check: checkRingIntegrity},
	{Name: "chain-edges", Check: func(s *RoundState) error { return s.Chain.CheckEdges() }},
	{Name: "no-zero-edges", Check: func(s *RoundState) error { return s.Chain.CheckNoZeroEdges() }},
	{Name: "bbox-monotone", Check: checkBoundsMonotone},
	{Name: "king-steps", Check: checkKingSteps},
	{Name: "run-storage", Check: checkRunStorage},
}

// Safety returns the per-round safety invariants, in checking order:
//
//	ring-integrity  the chain is one closed, consistently linked ring
//	chain-edges     every edge is an axis unit or zero
//	no-zero-edges   no co-located chain neighbours survive resolution
//	bbox-monotone   the bounding box never grows (all moves point inward)
//	king-steps      every robot moved at most to a neighbouring grid point
//	run-storage     every run lives on a robot, at most three per robot
//
// They must hold for every strategy under every activation model.
// Options.CheckInvariants runs them in the engine, and the oracle's
// Battery runs them beside its paper-only progress checks (DESIGN.md §7).
func Safety() []Invariant { return append([]Invariant(nil), safety...) }

// Begin records what the checks of the coming round compare against: the
// bounding box and every live robot's position before the round.
func (s *RoundState) Begin(ch *chain.Chain) {
	s.Chain = ch
	s.PrevBounds = ch.Bounds()
	s.prevPos.Reset(ch.NumHandles())
	for _, h := range ch.Handles() {
		s.prevPos.Set(h, ch.PosOf(h))
	}
}

// Check runs the battery on the round opened by Begin, which reported rep
// and left runs, and returns the first violated invariant's name and
// error.
func (s *RoundState) Check(battery []Invariant, rep core.RoundReport, runs []*core.Run) (string, error) {
	s.Report, s.Runs = rep, runs
	for _, inv := range battery {
		if err := inv.Check(s); err != nil {
			return inv.Name, err
		}
	}
	if rep.Merges() > 0 {
		s.LastMergeRound = rep.Round
	}
	return "", nil
}

// checkRingIntegrity verifies the linked ring against the index view: the
// successor/predecessor links are mutual, walking Next from the head
// visits exactly Len live robots and returns to the start, and the cyclic
// index accessors agree with the walk.
func checkRingIntegrity(s *RoundState) error {
	ch := s.Chain
	n := ch.Len()
	if n == 0 {
		return fmt.Errorf("chain has no robots")
	}
	hs := ch.Handles()
	if len(hs) != n {
		return fmt.Errorf("Handles() returned %d entries for Len() %d", len(hs), n)
	}
	for i, h := range hs {
		if !ch.Contains(h) {
			return fmt.Errorf("ring lists dead handle %d at index %d", h, i)
		}
		next := hs[(i+1)%n]
		if got := ch.Next(h); got != next {
			return fmt.Errorf("Next(%d) = %d, ring order says %d", h, got, next)
		}
		if got := ch.Prev(next); got != h {
			return fmt.Errorf("Prev(%d) = %d, ring order says %d", next, got, h)
		}
		if got := ch.IndexOf(h); got != i {
			return fmt.Errorf("IndexOf(%d) = %d, ring order says %d", h, got, i)
		}
		if got := ch.At(i); got != h {
			return fmt.Errorf("At(%d) = %d, ring order says %d", i, got, h)
		}
	}
	return nil
}

// checkBoundsMonotone asserts the geometric heart of the progress
// argument: every movement rule (merge hops, reshapement hops, corner
// cuts) points inward, so the bounding box can only shrink.
func checkBoundsMonotone(s *RoundState) error {
	if s.PrevBounds.Empty() {
		return nil
	}
	cur := s.Chain.Bounds()
	prev := s.PrevBounds
	if cur.Min.X < prev.Min.X || cur.Min.Y < prev.Min.Y ||
		cur.Max.X > prev.Max.X || cur.Max.Y > prev.Max.Y {
		return fmt.Errorf("bounding box grew: %v -> %v", prev, cur)
	}
	return nil
}

// checkKingSteps asserts the model's movement rule: every robot that
// survived the round moved at most one king step from where Begin saw it.
func checkKingSteps(s *RoundState) error {
	ch := s.Chain
	for _, h := range ch.Handles() {
		prev, ok := s.prevPos.Get(h)
		if !ok {
			return fmt.Errorf("robot %d appeared from nowhere", ch.ID(h))
		}
		if d := ch.PosOf(h).Sub(prev); !d.IsKingStep() {
			return fmt.Errorf("robot %d moved %v in one round", ch.ID(h), d)
		}
	}
	return nil
}

// checkRunStorage asserts the run-storage bound: every run is hosted on a
// robot still in the chain, and no robot hosts more than three.
func checkRunStorage(s *RoundState) error {
	ch := s.Chain
	s.occupancy.Reset(ch.NumHandles())
	for _, run := range s.Runs {
		if !ch.Contains(run.Host) {
			return fmt.Errorf("run %d hosted on removed robot", run.ID)
		}
		n, _ := s.occupancy.Get(run.Host)
		s.occupancy.Set(run.Host, n+1)
		if n+1 > 3 {
			return fmt.Errorf("robot %d hosts %d runs", ch.ID(run.Host), n+1)
		}
	}
	return nil
}
