package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/sched"
)

// flatRing2x1 is the Fig 2 U-merge workload: a 2x1 ring whose four merge
// patterns (two k=3 rows, two k=2 ends) give KernelMergeScan something to
// own on both sides of any chunk boundary.
func flatRing2x1(t *testing.T) *chain.Chain {
	return mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0),
		grid.V(2, 1), grid.V(1, 1), grid.V(0, 1))
}

// kernelPatterns runs KernelMergeScan over one explicit range on worker 0
// and returns its combined spike+U-turn output.
func kernelPatterns(a *Algorithm, lo, hi int) []MergePattern {
	a.Chain().Handles() // materialise the ring order, as the driver would
	a.KernelMergeScan(0, lo, hi)
	w := &a.workers[0]
	return append(append([]MergePattern{}, w.spikes...), w.uturns...)
}

// TestKernelMergeScanRanges drives KernelMergeScan over hand-picked ranges
// of the Fig 2 flat ring: a chunk owns exactly the reference patterns
// (refDetectMerges) whose first black lies inside it, an empty range owns
// nothing, and a range ending mid-merge still reports the whole pattern
// (reads cross the seam, writes never do).
func TestKernelMergeScanRanges(t *testing.T) {
	c := flatRing2x1(t)
	cfg := DefaultConfig()
	alg, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Len()
	ref := refDetectMerges(alg.Chain(), cfg.MaxMergeLen)
	if len(ref) != 4 {
		t.Fatalf("reference patterns = %d, want 4: %+v", len(ref), ref)
	}

	owned := func(lo, hi int) []MergePattern {
		var out []MergePattern
		for _, p := range ref {
			if lo <= p.FirstBlack && p.FirstBlack < hi {
				out = append(out, p)
			}
		}
		return out
	}
	cases := []struct {
		name   string
		lo, hi int
	}{
		{"empty", 2, 2},
		{"empty_at_zero", 0, 0},
		{"single_handle_first_black", ref[0].FirstBlack, ref[0].FirstBlack + 1},
		{"single_handle_mid_pattern", ref[0].FirstBlack + 1, ref[0].FirstBlack + 2},
		// The range ends strictly inside the black range of ref's widest
		// pattern: the owning chunk must scan past hi and report it whole.
		{"ends_mid_merge", 0, widestMid(t, ref)},
		{"starts_mid_merge", widestMid(t, ref), n},
		{"full", 0, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := kernelPatterns(alg, tc.lo, tc.hi)
			want := owned(tc.lo, tc.hi)
			if len(got) != len(want) {
				t.Fatalf("[%d,%d): got %+v, want %+v", tc.lo, tc.hi, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("[%d,%d) pattern %d: got %+v, want %+v", tc.lo, tc.hi, i, got[i], want[i])
				}
			}
		})
	}
}

// widestMid returns an index strictly inside the black range of the widest
// reference pattern, so a range ending there ends mid-merge.
func widestMid(t *testing.T, ref []MergePattern) int {
	t.Helper()
	best := ref[0]
	for _, p := range ref {
		if p.Len > best.Len {
			best = p
		}
	}
	if best.Len < 2 {
		t.Fatal("workload has no multi-black pattern to cut through")
	}
	return best.FirstBlack + 1
}

// TestKernelMergeScanPartitions checks the chunk-union property on several
// workloads: concatenating per-chunk KernelMergeScan output in chunk order
// (spikes first, then U-turns, as CombineMergePlan does) reproduces the
// edge-run reference (refDetectMerges) byte for byte for every worker
// count, including P > n.
func TestKernelMergeScanPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	doubled, err := generate.DoubledPath(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[string]*chain.Chain{
		"flat_ring_2x1": flatRing2x1(t),
		"spike4":        mustChain(t, grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(1, 0)),
		"square16":      mustChain(t, squareRing(16)...),
		"doubled20":     doubled,
	}
	for name, c := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			alg, err := New(c.Clone(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := alg.Chain().Len()
			want := refDetectMerges(alg.Chain(), cfg.MaxMergeLen)
			for _, p := range []int{1, 2, 3, 4, 5, n + 3} {
				var spikes, uturns []MergePattern
				for w := 0; w < p; w++ {
					alg.KernelMergeScan(0, w*n/p, (w+1)*n/p)
					spikes = append(spikes, alg.workers[0].spikes...)
					uturns = append(uturns, alg.workers[0].uturns...)
				}
				got := append(spikes, uturns...)
				if len(got) != len(want) {
					t.Fatalf("P=%d: got %d patterns, want %d", p, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("P=%d pattern %d: got %+v, want %+v", p, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestKernelDecideRanges checks that KernelDecide is range-local: the empty
// range decides nothing, a single-slot range reproduces that slot of the
// full-range output, and any chunk partition concatenates to it.
func TestKernelDecideRanges(t *testing.T) {
	const s = 16
	alg := newAlg(t, true, squareRing(s)...)
	alg.InjectRun(3*s, -1)
	alg.InjectRun(2*s, +1)
	alg.InjectRun(s, +1)

	// Reproduce the driver's look-phase setup for one round.
	alg.Chain().Handles()
	alg.active = nil
	alg.forEachChunk(alg.Chain().Len(), alg.kMergeScan)
	if err := alg.CombineMergePlan(); err != nil {
		t.Fatal(err)
	}
	for _, run := range alg.runs {
		run.justStarted = false
	}

	nr := len(alg.runs)
	decide := func(lo, hi int) []runDecision {
		alg.KernelDecide(0, lo, hi)
		return append([]runDecision{}, alg.workers[0].decisions...)
	}
	full := decide(0, nr)
	if len(full) != nr {
		t.Fatalf("full range: %d decisions for %d runs", len(full), nr)
	}
	if got := decide(1, 1); len(got) != 0 {
		t.Errorf("empty range decided %d runs", len(got))
	}
	for slot := 0; slot < nr; slot++ {
		got := decide(slot, slot+1)
		if len(got) != 1 || got[0] != full[slot] {
			t.Errorf("single slot [%d,%d): got %+v, want %+v", slot, slot+1, got, full[slot])
		}
	}
	for _, p := range []int{2, 3, 4} {
		var cat []runDecision
		for w := 0; w < p; w++ {
			cat = append(cat, decide(w*nr/p, (w+1)*nr/p)...)
		}
		if len(cat) != nr {
			t.Fatalf("P=%d: %d decisions, want %d", p, len(cat), nr)
		}
		for i := range cat {
			if cat[i] != full[i] {
				t.Errorf("P=%d slot %d: got %+v, want %+v", p, i, cat[i], full[i])
			}
		}
	}
}

// TestKernelStartScanRanges checks the same range-locality for the Fig 5
// start scan: empty ranges find nothing and chunk partitions concatenate
// to the sequential scan, pending starts and corner-cut hops alike.
func TestKernelStartScanRanges(t *testing.T) {
	const s = 16
	alg := newAlg(t, false, squareRing(s)...)
	alg.Chain().Handles()
	alg.active = nil
	alg.forEachChunk(alg.Chain().Len(), alg.kMergeScan)
	if err := alg.CombineMergePlan(); err != nil {
		t.Fatal(err)
	}

	n := alg.Chain().Len()
	scan := func(lo, hi int) ([]pendingStart, []startHop) {
		alg.KernelStartScan(0, lo, hi)
		w := &alg.workers[0]
		return append([]pendingStart{}, w.pending...), append([]startHop{}, w.startHops...)
	}
	fullPending, fullHops := scan(0, n)
	// A square ring starts two runs per corner with a corner-cut hop each.
	if len(fullPending) != 8 || len(fullHops) != 4 {
		t.Fatalf("full scan found %d pending / %d hops, want 8 / 4", len(fullPending), len(fullHops))
	}
	if p, h := scan(3, 3); len(p) != 0 || len(h) != 0 {
		t.Errorf("empty range found %d pending / %d hops", len(p), len(h))
	}
	// The single-handle range over a corner finds exactly its two starts.
	if p, h := scan(0, 1); len(p) != 2 || len(h) != 1 {
		t.Errorf("corner range found %d pending / %d hops, want 2 / 1", len(p), len(h))
	}
	for _, par := range []int{2, 3, 4, 7} {
		var pend []pendingStart
		var hops []startHop
		for w := 0; w < par; w++ {
			p, h := scan(w*n/par, (w+1)*n/par)
			pend = append(pend, p...)
			hops = append(hops, h...)
		}
		if fmt.Sprintf("%+v%+v", pend, hops) != fmt.Sprintf("%+v%+v", fullPending, fullHops) {
			t.Errorf("P=%d: chunked scan differs from sequential scan", par)
		}
	}
}

// TestSeamEdgeFixpointBoundedAdversary pins the hardest seam interaction:
// under a bounded-adversary activation set, the driver's edge-conflict
// fixpoint must retract hops whose conflicting pair straddles a Workers=4
// chunk boundary, and the observable rounds must stay byte-identical to
// the sequential driver throughout. The workload and seeds were selected
// (by instrumenting the fixpoint during test construction) so that the
// fixpoint actually fires across a seam during the run; the HopConflicts
// assertion keeps the scenario from silently degenerating.
func TestSeamEdgeFixpointBoundedAdversary(t *testing.T) {
	build := func(workers int) *Algorithm {
		ch, err := generate.DoubledPath(40, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = workers
		alg, err := New(ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	seq, par := build(1), build(4)
	sc, err := sched.New(sched.Config{Kind: sched.BoundedAdversary, K: 3, P: 0.5, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	conflicts := 0
	for round := 0; round < 600; round++ {
		active := make([]bool, seq.Chain().Len())
		sc.Activate(round, active)
		ra, err := seq.StepActivated(active)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := par.StepActivated(active)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", ra) != fmt.Sprintf("%+v", rb) {
			t.Fatalf("round %d: workers=1 and workers=4 reports diverge:\n%+v\n%+v", round, ra, rb)
		}
		for i := 0; i < seq.Chain().Len(); i++ {
			if seq.Chain().Pos(i) != par.Chain().Pos(i) {
				t.Fatalf("round %d: position %d diverges: %v vs %v",
					round, i, seq.Chain().Pos(i), par.Chain().Pos(i))
			}
		}
		conflicts += ra.Anomalies.HopConflicts
		if ra.Gathered {
			break
		}
	}
	if !seq.Gathered() {
		t.Fatal("bounded-adversary run never gathered within the round budget")
	}
	if conflicts == 0 {
		t.Fatal("scenario exercised no hop-conflict suppression — the seam fixpoint never fired")
	}
}
