package core

import (
	"math"
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/view"
)

// The look phase reads run states from the ring-indexed run mask and the
// start scan's two-run cap from the ring-indexed run count (indexRuns).
// Both replaced a per-robot run registry; the references below read the
// runs themselves, host by host, and the tables must equal them for every
// robot at every round.

// refRunBits is the lookup the mask replaced: the directions of the runs
// hosted on robot h that a look phase may see (not started this round), as
// mask bits.
func refRunBits(a *Algorithm, h chain.Handle) uint8 {
	var bits uint8
	for _, run := range a.runs {
		if run.Host == h && !run.justStarted {
			bits |= view.RunBit(run.Dir)
		}
	}
	return bits
}

// refRunCount is the number of runs hosted on robot h, saturated as the
// ring count is.
func refRunCount(a *Algorithm, h chain.Handle) uint8 {
	count := 0
	for _, run := range a.runs {
		if run.Host == h {
			count++
		}
	}
	return uint8(min(count, math.MaxUint8))
}

// checkRunMask compares the mask and the run counts with the references at
// every ring index, in the state the next look phase decides in:
// StepActivated clears the just-started flags before it decides, and so
// does this check (which changes nothing the next Step would see). It
// returns the number of runs the mask carried.
func checkRunMask(t testing.TB, a *Algorithm, label string) int {
	t.Helper()
	for _, run := range a.runs {
		run.justStarted = false
	}
	for i, h := range a.ch.Handles() {
		if got, want := a.runMask[i], refRunBits(a, h); got != want {
			t.Fatalf("%s round %d: run mask at index %d (robot %d) is %02b, runs say %02b",
				label, a.round, i, h, got, want)
		}
		if got, want := a.runCount[i], refRunCount(a, h); got != want {
			t.Fatalf("%s round %d: run count at index %d (robot %d) is %d, runs say %d",
				label, a.round, i, h, got, want)
		}
	}
	return len(a.runs)
}

// gatherCheckingRunMask runs the paper strategy on c under the scheduler
// for at most maxRounds rounds, checking the run mask before every round.
// It returns the number of run-rounds checked.
func gatherCheckingRunMask(t testing.TB, c *chain.Chain, sc sched.Config, maxRounds int, label string) int {
	t.Helper()
	alg, err := New(c, DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	s, err := sched.New(sc)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var active []bool
	checked := 0
	for r := 0; r < maxRounds && !alg.Gathered(); r++ {
		checked += checkRunMask(t, alg, label)
		var set []bool
		if !s.FullySync() {
			active = append(active[:0], make([]bool, c.Len())...)
			s.Activate(alg.Round(), active)
			set = active
		}
		if _, err := alg.StepActivated(set); err != nil {
			t.Fatalf("%s round %d: %v", label, r, err)
		}
	}
	checked += checkRunMask(t, alg, label)
	return checked
}

// seededGathers returns the seeded inputs of the look-phase batteries:
// squares, polyominoes, spirals, walks and generate.FromBytes chains.
func seededGathers(t testing.TB, seed int64) []labeledChain {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var inputs []labeledChain
	add := func(label string, c *chain.Chain, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		inputs = append(inputs, labeledChain{label, c})
	}
	for _, side := range []int{12, 40} {
		c, err := generate.Rectangle(side, side)
		add("square", c, err)
	}
	for _, cells := range []int{40, 120} {
		c, err := generate.RandomPolyomino(cells, rng)
		add("polyomino", c, err)
	}
	for _, w := range []int{4, 8} {
		c, err := generate.Spiral(w)
		add("spiral", c, err)
	}
	for _, n := range []int{64, 160} {
		c, err := generate.RandomClosedWalk(n, rng)
		add("walk", c, err)
	}
	for k := 0; k < 4; k++ {
		data := make([]byte, 16+rng.Intn(100))
		rng.Read(data)
		c, err := generate.FromBytes(data)
		add("bytes", c, err)
	}
	return inputs
}

type labeledChain struct {
	label string
	c     *chain.Chain
}

// lookScheds are the activation models of the look-phase batteries: FSYNC
// and a seeded random:p=0.5.
var lookScheds = []sched.Config{{}, {Kind: sched.Random, P: 0.5, Seed: 7}}

// TestRunMaskMatchesRegistry holds the run mask and the run counts to the
// per-host lookups over the runs on seeded paper gathers of squares, polyominoes, spirals, walks and
// generate.FromBytes chains, under FSYNC and random:p=0.5 activation.
func TestRunMaskMatchesRegistry(t *testing.T) {
	checked := 0
	for _, in := range seededGathers(t, 16) {
		for _, sc := range lookScheds {
			label := in.label + "/" + sc.String()
			checked += gatherCheckingRunMask(t, in.c.Clone(), sc, 20*in.c.Len(), label)
		}
	}
	t.Logf("checked %d run-rounds", checked)
	if checked < 20000 {
		t.Errorf("checked only %d run-rounds; the battery lost its runs", checked)
	}
}

// FuzzRunMaskVsRegistry is the native fuzz form of the same property: any
// generate.FromBytes chain, with the selector byte choosing FSYNC or a
// seeded random:p=0.5 schedule (bit 1 is unused).
func FuzzRunMaskVsRegistry(f *testing.F) {
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
		gatherCheckingRunMask(t, c, sc, 4*c.Len(), "fuzz")
	})
}
