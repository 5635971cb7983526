package core

import (
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
)

// The run decision reads its whole window in one pass (scanLine). The
// reference below is the decision as it stood before: the endpoint parse,
// each Table 1 run probe and the aligned count read the window separately.
// It reads positions (posView) and takes its run bits from the registry
// (refRunBits), not from the run mask, so it shares neither the edge codes
// nor the mask with the engine.

// refRunDecision is the unfused computeRunDecision over a position-based
// view of rs, the ring state the round decides in.
func refRunDecision(a *Algorithm, rs ringState, run *Run, plan *MergePlan) (runDecision, Anomalies) {
	var an Anomalies
	d := runDecision{
		run: run, mergeRobot: -1, advanceTo: chain.None,
		newMode: run.Mode, newTraverseLeft: run.TraverseLeft,
		newOpOrigin: run.OpOrigin, newOpTarget: run.OpTarget,
		newPassTarget: run.PassTarget, newPassBudget: run.PassBudget,
	}
	idx := a.ch.IndexOf(run.Host)
	if idx < 0 {
		d.terminate, d.reason = true, TermHostRemoved
		return d, an
	}
	s := rs.view(idx, a.cfg.ViewingPathLength)
	dir := run.Dir
	scanMax := min(a.cfg.ViewingPathLength, a.ch.Len()-1)

	if plan.Participant(run.Host) {
		d.terminate, d.reason = true, TermMerge
		d.mergeRobot = a.patternOf(idx, run.Dir, plan)
		return d, an
	}
	endOff, endSeen := refEndpointAhead(s, dir)
	seqMax := scanMax
	if endSeen {
		seqMax = min(seqMax, endOff-1)
	}
	for j := 1; j <= seqMax; j++ {
		if s.HasRunAway(j * dir) {
			d.terminate, d.reason = true, TermSequentRun
			return d, an
		}
	}
	if run.Mode == ModePassing && run.PassTarget != chain.None && !a.ch.Contains(run.PassTarget) {
		d.terminate, d.reason = true, TermPassTargetGone
		return d, an
	}
	if run.Mode == ModeTraverse && run.OpTarget != chain.None && !a.ch.Contains(run.OpTarget) {
		d.terminate, d.reason = true, TermOpTargetGone
		return d, an
	}
	if endSeen {
		window := min(max(endOff, PassingTriggerDistance), scanMax)
		approaching := false
		for j := 1; j <= window; j++ {
			if s.HasRunTowards(j * dir) {
				approaching = true
				break
			}
		}
		if !approaching {
			d.terminate, d.reason = true, TermEndpoint
			return d, an
		}
	}
	d.advanceTo = s.Robot(dir)
	if run.Mode == ModePassing {
		d.newPassBudget--
		if d.newPassBudget < 0 {
			d.terminate, d.reason = true, TermStuck
		}
		return d, an
	}
	trigger := min(PassingTriggerDistance, scanMax)
	for j := 1; j <= trigger; j++ {
		partner := refApproachingRunAt(a, s, j*dir, dir)
		if partner == nil {
			continue
		}
		d.newMode = ModePassing
		d.newPassBudget = passBudgetFor(a.cfg)
		if run.Mode == ModeTraverse {
			d.newPassTarget = run.OpTarget
		} else if partner.Mode == ModeTraverse && partner.OpOrigin != chain.None {
			d.newPassTarget = partner.OpOrigin
		} else {
			d.newPassTarget = partner.Host
		}
		d.newTraverseLeft, d.newOpOrigin, d.newOpTarget = 0, chain.None, chain.None
		return d, an
	}
	if run.Mode == ModeTraverse {
		d.newTraverseLeft--
		if d.newTraverseLeft <= 0 {
			d.newMode = ModeNormal
			d.newTraverseLeft, d.newOpOrigin, d.newOpTarget = 0, chain.None, chain.None
		}
		return d, an
	}
	if !s.Edge(0, -dir).Perp(s.Edge(0, dir)) {
		an.NotOnCorner++
		return d, an
	}
	switch sa := s.AlignedAhead(dir); {
	case sa >= 3:
		d.hop = s.Edge(0, dir).Add(s.Edge(0, -dir))
	case sa == 2:
		d.newMode = ModeTraverse
		d.newTraverseLeft = OpBTraverse - 1
		d.newOpOrigin = run.Host
		d.newOpTarget = s.Robot(OpBTraverse * dir)
	default:
		an.ShortAhead++
	}
	return d, an
}

// refApproachingRunAt is approachingRunAt over the reference view.
func refApproachingRunAt(a *Algorithm, s *posView, k, dir int) *Run {
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

// gatherCheckingDecisions runs the paper strategy on c under the scheduler
// for at most maxRounds rounds and holds every round's
// decisions, as the decide kernels wrote them, to refRunDecision evaluated
// on the state the round decided in: every run, in registry order, frozen
// ones included, and the anomaly counts only decisions raise. It returns
// the number of decisions checked.
func gatherCheckingDecisions(t testing.TB, c *chain.Chain, sc sched.Config, maxRounds int, label string) int {
	t.Helper()
	alg, err := New(c, DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	s, err := sched.New(sc)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	plan := NewMergePlan()
	var (
		active []bool
		want   []runDecision
	)
	checked := 0
	for r := 0; r < maxRounds && !alg.Gathered(); r++ {
		var set []bool
		if !s.FullySync() {
			active = append(active[:0], make([]bool, c.Len())...)
			s.Activate(alg.Round(), active)
			set = active
		}
		// The state the round decides in: StepActivated clears the
		// just-started flags first, and plans the merges of this state.
		for _, run := range alg.runs {
			run.justStarted = false
		}
		if err := plan.Plan(alg.ch, alg.cfg.MaxMergeLen); err != nil {
			t.Fatalf("%s round %d: %v", label, r, err)
		}
		rs := ringOf(alg.ch, nil)
		rs.runs = make([]uint8, len(rs.order))
		for i, h := range rs.order {
			rs.runs[i] = refRunBits(alg, h)
		}
		want = want[:0]
		var wantAn Anomalies
		for _, run := range alg.runs {
			if !activeAt(set, alg.ch.IndexOf(run.Host)) {
				want = append(want, runDecision{run: run, frozen: true})
				continue
			}
			d, an := refRunDecision(alg, rs, run, plan)
			want = append(want, d)
			wantAn.Add(an)
		}
		rep, err := alg.StepActivated(set)
		if err != nil {
			t.Fatalf("%s round %d: %v", label, r, err)
		}
		got := alg.scratch.decisions
		if len(got) != len(want) {
			t.Fatalf("%s round %d: %d decisions, reference %d", label, r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s round %d, run #%d (%v): decision\n  %+v\nreference\n  %+v",
					label, r, i, want[i].run, got[i], want[i])
			}
		}
		if rep.Anomalies.NotOnCorner != wantAn.NotOnCorner || rep.Anomalies.ShortAhead != wantAn.ShortAhead {
			t.Fatalf("%s round %d: anomalies %+v, reference not-on-corner %d short-ahead %d",
				label, r, rep.Anomalies, wantAn.NotOnCorner, wantAn.ShortAhead)
		}
		checked += len(want)
	}
	return checked
}

// TestRunDecisionMatchesReference holds the one-pass run decision to the
// unfused reference for every run in every round of the seeded paper
// gathers of the run-mask battery, under FSYNC and random:p=0.5
// activation.
func TestRunDecisionMatchesReference(t *testing.T) {
	checked := 0
	for _, in := range seededGathers(t, 17) {
		for _, sc := range lookScheds {
			label := in.label + "/" + sc.String()
			checked += gatherCheckingDecisions(t, in.c.Clone(), sc, 20*in.c.Len(), label)
		}
	}
	t.Logf("checked %d decisions", checked)
	if checked < 20000 {
		t.Errorf("checked only %d decisions; the battery lost its runs", checked)
	}
}

// FuzzRunDecisionVsReference is the native fuzz form of the same property:
// any generate.FromBytes chain, with the selector byte choosing FSYNC or a
// seeded random:p=0.5 schedule (bit 1 is unused).
func FuzzRunDecisionVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}, uint8(0))
	f.Add([]byte("corner-and-stairway-starts"), uint8(3))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 0, 0, 1, 2, 2, 3}, uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		if len(data) > 256 {
			return
		}
		c, err := generate.FromBytes(data)
		if err != nil {
			return
		}
		var sc sched.Config
		if sel&1 != 0 {
			sc = sched.Config{Kind: sched.Random, P: 0.5, Seed: int64(sel >> 2)}
		}
		gatherCheckingDecisions(t, c, sc, 4*c.Len(), "fuzz")
	})
}
