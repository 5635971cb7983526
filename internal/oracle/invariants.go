package oracle

import (
	"fmt"

	"gridgather/internal/core"
	"gridgather/internal/sim"
)

// Battery returns the oracle's invariant set, in checking order: the
// engine's safety battery (sim.Safety) followed by the paper's two
// progress checks,
//
//	lemma1-window         every run-start window has a merge or a good pair
//	theorem1-round-cap    gathering finishes within (2L+1)*n rounds
//
// The battery is declarative so callers can extend or subset it;
// CheckWithOptions runs it as given. The last two entries are FSYNCOnly
// and PaperOnly: Lemma 1 and Theorem 1 are proven for the paper strategy
// under fully synchronous rounds and their premises fail by design when
// robots sleep or another strategy runs, while the safety invariants must
// hold under every activation model and every strategy (DESIGN.md §7, §8,
// §10).
func Battery() []sim.Invariant {
	return append(sim.Safety(),
		sim.Invariant{Name: "lemma1-window", Check: checkLemma1Window, FSYNCOnly: true, PaperOnly: true},
		sim.Invariant{Name: "theorem1-round-cap", Check: checkTheorem1Cap, FSYNCOnly: true, PaperOnly: true},
	)
}

// checkLemma1Window is Lemma 1 as a per-window assertion: at every
// run-start round on a large enough, ungathered chain, either a merge
// happened within the last L rounds or a good pair started this round.
func checkLemma1Window(s *sim.RoundState) error {
	rep := s.Report
	if s.Cfg.DisableRunStarts || s.Cfg.SequentialRuns {
		return nil // the ablations deliberately break the lemma's premise
	}
	lenBefore := rep.ChainLen + rep.Merges()
	if rep.Round%s.Cfg.RunPeriod != 0 || lenBefore < core.MinChainForRuns || rep.Gathered {
		return nil
	}
	mergedNow := rep.Merges() > 0
	mergeFree := !mergedNow && (s.LastMergeRound == -1 || rep.Round-s.LastMergeRound >= s.Cfg.RunPeriod)
	if !mergeFree {
		return nil
	}
	for _, st := range rep.Starts {
		if st.Pair >= 0 && st.Good {
			return nil
		}
	}
	return fmt.Errorf("run-start round %d: no merge in the last %d rounds and no good pair started",
		rep.Round, s.Cfg.RunPeriod)
}

// checkTheorem1Cap operationalises Theorem 1: gathering must complete
// within (2L+1)*n rounds of the start configuration's n. Checked at the
// gathering round (liveness up to that point is Check's watchdog).
func checkTheorem1Cap(s *sim.RoundState) error {
	if !s.Report.Gathered {
		return nil
	}
	bound := Theorem1Cap(s.Cfg, s.InitialLen)
	rounds := s.Report.Round + 1
	if rounds > bound {
		return fmt.Errorf("gathered after %d rounds, Theorem 1 caps n=%d at %d", rounds, s.InitialLen, bound)
	}
	return nil
}

// Theorem1Cap returns the paper's round bound for a start configuration
// of n robots: (2L+1)*n, i.e. 2nL + n.
func Theorem1Cap(cfg core.Config, n int) int {
	l := cfg.RunPeriod
	if l <= 0 {
		l = core.DefaultRunPeriod
	}
	return (2*l + 1) * n
}
