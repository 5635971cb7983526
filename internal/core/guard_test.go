package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
)

// kingHops are the eight non-zero king steps a hop can take.
var kingHops = []grid.Vec{
	grid.V(1, 0), grid.V(1, 1), grid.V(0, 1), grid.V(-1, 1),
	grid.V(-1, 0), grid.V(-1, -1), grid.V(0, -1), grid.V(1, -1),
}

// refSuppress is the edge-first reference of the edge-conflict fixpoint,
// written without edgeGuard's waves: mark both endpoints of every ring
// edge the live hops would make illegal, delete the marked hops together,
// repeat until a pass deletes nothing. pos is the ring, hops maps ring
// index to hop; the surviving hops are returned.
func refSuppress(pos []grid.Vec, hops map[int]grid.Vec) map[int]grid.Vec {
	live := maps.Clone(hops)
	n := len(pos)
	for {
		marked := make([]bool, n)
		for i := range n {
			j := (i + 1) % n
			if !pos[j].Add(live[j]).Sub(pos[i].Add(live[i])).IsChainEdge() {
				marked[i], marked[j] = true, true
			}
		}
		deleted := false
		for i, m := range marked {
			if _, ok := live[i]; m && ok {
				delete(live, i)
				deleted = true
			}
		}
		if !deleted {
			return live
		}
	}
}

// guardSurvivors loads hops (by ring index) into a hop table in the given
// insertion order, runs the guard, and returns the surviving hops by ring
// index and the number the guard reported suppressed.
func guardSurvivors(g *edgeGuard, ch *chain.Chain, hops map[int]grid.Vec, order []int) (map[int]grid.Vec, int) {
	var table chain.Scratch[grid.Vec]
	table.Reset(ch.NumHandles())
	for _, i := range order {
		table.Set(ch.At(i), hops[i])
	}
	suppressed := len(g.suppressIllegalHops(ch, &table))
	live := map[int]grid.Vec{}
	for i := range hops {
		if h, ok := table.Get(ch.At(i)); ok {
			live[i] = h
		}
	}
	return live, suppressed
}

// randomHops draws a king-step hop for each robot with probability p.
func randomHops(n int, p float64, rng *rand.Rand) map[int]grid.Vec {
	hops := map[int]grid.Vec{}
	for i := range n {
		if rng.Float64() < p {
			hops[i] = kingHops[rng.Intn(len(kingHops))]
		}
	}
	return hops
}

// bothEndsIllegal counts the ring edges whose two endpoints both hop and
// whose hops together make the edge illegal — the case an order-dependent
// rule settles differently depending on which end it visits first.
func bothEndsIllegal(pos []grid.Vec, hops map[int]grid.Vec) int {
	count := 0
	for i := range pos {
		j := (i + 1) % len(pos)
		hi, ok := hops[i]
		hj, okj := hops[j]
		if ok && okj && !pos[j].Add(hj).Sub(pos[i].Add(hi)).IsChainEdge() {
			count++
		}
	}
	return count
}

// checkGuard holds the guard to the reference on one input, for the ring
// order, the reversed order and a random permutation, and checks that the
// survivors leave every edge legal.
func checkGuard(t *testing.T, label string, ch *chain.Chain, hops map[int]grid.Vec, rng *rand.Rand) {
	t.Helper()
	pos := ch.Positions()
	want := refSuppress(pos, hops)
	ring := make([]int, 0, len(hops))
	for i := range hops {
		ring = append(ring, i)
	}
	slices.Sort(ring)
	reversed := slices.Clone(ring)
	slices.Reverse(reversed)
	shuffled := slices.Clone(ring)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var g edgeGuard
	for _, order := range [][]int{ring, reversed, shuffled} {
		got, suppressed := guardSurvivors(&g, ch, hops, order)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: insertion order %v keeps %v, edge-first reference keeps %v", label, order, got, want)
		}
		if suppressed != len(hops)-len(got) {
			t.Fatalf("%s: %d hops suppressed, but %d of %d survive", label, suppressed, len(got), len(hops))
		}
	}
	for i := range pos {
		j := (i + 1) % len(pos)
		if e := pos[j].Add(want[j]).Sub(pos[i].Add(want[i])); !e.IsChainEdge() {
			t.Fatalf("%s: edge %d..%d is %v after the fixpoint", label, i, j, e)
		}
	}
}

// guardChains returns every generator family at a few sizes plus seeded
// generate.FromBytes chains.
func guardChains(t *testing.T) map[string]*chain.Chain {
	t.Helper()
	chains := map[string]*chain.Chain{}
	for _, name := range generate.Names() {
		for _, n := range []int{16, 64, 160} {
			ch, err := generate.Named(name, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			chains[fmt.Sprintf("%s/%d", name, n)] = ch
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := range 12 {
		data := make([]byte, 4+rng.Intn(240))
		rng.Read(data)
		ch, err := generate.FromBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		chains[fmt.Sprintf("bytes#%d", i)] = ch
	}
	return chains
}

// TestEdgeGuardMatchesReference: on random chains with random king-step hop
// sets of every density, the fixpoint keeps the same hops for every
// insertion order, and exactly the hops the edge-first reference keeps.
// The inputs must include illegal edges with a live hop at both ends.
func TestEdgeGuardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	contested := 0
	for name, ch := range guardChains(t) {
		for _, p := range []float64{0.1, 0.5, 0.9, 1} {
			hops := randomHops(ch.Len(), p, rng)
			contested += bothEndsIllegal(ch.Positions(), hops)
			checkGuard(t, fmt.Sprintf("%s p=%.1f", name, p), ch, hops, rng)
		}
	}
	if contested == 0 {
		t.Fatal("no input had an illegal edge with live hops at both ends")
	}
}

// FuzzEdgeGuardVsReference holds the edge-conflict fixpoint to the
// edge-first reference on arbitrary chains (generate.FromBytes), hop sets
// (one byte per robot: low nibble 0..7 picks a king step, 8..15 no hop)
// and insertion orders (a permutation seed).
func FuzzEdgeGuardVsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	for _, name := range generate.Names() {
		ch, err := generate.Named(name, 24, rng)
		if err != nil {
			f.Fatal(err)
		}
		hopBytes := make([]byte, ch.Len())
		rng.Read(hopBytes)
		f.Add(generate.ToBytes(ch), hopBytes, rng.Int63())
	}
	f.Fuzz(func(t *testing.T, data, hopBytes []byte, permSeed int64) {
		if len(data) > 256 {
			data = data[:256]
		}
		ch, err := generate.FromBytes(data)
		if err != nil || len(hopBytes) == 0 {
			t.Skip()
		}
		hops := map[int]grid.Vec{}
		for i := range ch.Len() {
			if b := hopBytes[i%len(hopBytes)] & 0x0f; b < 8 {
				hops[i] = kingHops[b]
			}
		}
		checkGuard(t, "fuzz", ch, hops, rand.New(rand.NewSource(permSeed)))
	})
}

// backToBackWitness is internal/oracle's TestBackToBackRunsRegression
// chain (generate.FromBytes), where the fixpoint fires under full
// activation at V=9, L=17, MaxMergeLen=8.
const backToBackWitness = "\x01\x01\x01\x02\x02\x01\x02\x03\x01\x02\x03\x02\x02\x03\x03\x03\x02\x02\x03\x03\x01\x01\x01\x02\x02\x01\x02\x03\x02\x01\x02\x03\x03\x03\x01\x03\x03\x03\x03\x01\x01\x01\x01\x00\x01\x00\x01\x01\x01\x00\x00\x00\x00\x00\x01\x01\x00\x00\x01\x00\x00\x01\x00\x01\x01\x01\x00\x00\x03\x03\x00\x01\x03\x00\x03\x03\x03\x03\x03\x01\x01\x02\x03\x02\x02\x03\x03\x03\x00\x03\x02\x03"

// TestNilEqualsAllAwake: for both strategies, stepping a chain with the
// nil activation set (FSYNC) and with an all-true set gives identical
// round reports and positions in every round, on every generator family,
// on seeded byte chains and on the back-to-back witness, under the
// default configuration and the witness's.
func TestNilEqualsAllAwake(t *testing.T) {
	chains := guardChains(t)
	witness, err := generate.FromBytes([]byte(backToBackWitness))
	if err != nil {
		t.Fatal(err)
	}
	chains["witness"] = witness
	configs := []Config{DefaultConfig(), {ViewingPathLength: 9, RunPeriod: 17, MaxMergeLen: 8}}
	conflicts := 0
	for _, strat := range []StrategyName{StrategyPaper, StrategyLinTime} {
		for name, ch := range chains {
			for _, cfg := range configs {
				label := fmt.Sprintf("%s %s V=%d", strat, name, cfg.ViewingPathLength)
				fsync, err := NewStrategy(strat, ch.Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				awake, err := NewStrategy(strat, ch.Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				limit := 60*ch.Len() + 400
				for r := 0; r < limit && !fsync.Gathered(); r++ {
					want, err := fsync.StepActivated(nil)
					if err != nil {
						t.Fatalf("%s round %d: %v", label, r, err)
					}
					all := make([]bool, awake.Chain().Len())
					for i := range all {
						all[i] = true
					}
					got, err := awake.StepActivated(all)
					if err != nil {
						t.Fatalf("%s round %d: %v", label, r, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s round %d: all-true set reports\n%+v\nnil set reports\n%+v", label, r, got, want)
					}
					if !slices.Equal(awake.Chain().Positions(), fsync.Chain().Positions()) {
						t.Fatalf("%s round %d: positions differ", label, r)
					}
					conflicts += want.Anomalies.HopConflicts
				}
				if !fsync.Gathered() {
					t.Fatalf("%s: not gathered within %d rounds", label, limit)
				}
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("the edge-conflict fixpoint never fired under full activation")
	}
}

// TestActivationSetLength: both strategies reject an activation set whose
// length is not the chain length with the same error, without consuming
// a round, and step a set of the exact length.
func TestActivationSetLength(t *testing.T) {
	for _, strat := range []StrategyName{StrategyPaper, StrategyLinTime} {
		for _, tc := range []struct {
			name  string
			delta int
		}{{"short", -3}, {"long", +3}, {"exact", 0}} {
			ch, err := generate.Rectangle(8, 8)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewStrategy(strat, ch, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			n := ch.Len()
			active := make([]bool, n+tc.delta)
			for i := range active {
				active[i] = true
			}
			_, err = s.StepActivated(active)
			if tc.delta == 0 {
				if err != nil || s.Round() != 1 {
					t.Errorf("%s %s: err %v, round %d; want nil, 1", strat, tc.name, err, s.Round())
				}
				continue
			}
			want := fmt.Sprintf("core: activation set has %d entries for %d robots", len(active), n)
			if err == nil || err.Error() != want || s.Round() != 0 {
				t.Errorf("%s %s: err %v, round %d; want %q, 0", strat, tc.name, err, s.Round(), want)
			}
		}
	}
}
