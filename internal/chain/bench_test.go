package chain_test

import (
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
)

// BenchmarkTrajectory runs this package's entry of the pinned benchmark
// trajectory (BENCH_*.json, internal/benchio); the sub-benchmark's name is
// its entry name.
func BenchmarkTrajectory(b *testing.B) {
	b.Run("ResolveMergesSeeded/n=4096", benchResolveMergesSeeded4096)
}

// benchResolveMergesSeeded4096 measures large-n merge resolution through
// the seeded O(#moved + #merges) path the paper round uses every round:
// each iteration co-locates a batch of robots with a chain neighbour and
// resolves around exactly those movers. The chain shrinks as merges
// execute and is rebuilt off-timer. Steady state allocates nothing.
func benchResolveMergesSeeded4096(b *testing.B) {
	const n, batch = 4096, 64
	mk := func() *chain.Chain {
		ch, err := generate.RandomClosedWalk(n, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		return ch
	}
	ch := mk()
	rng := rand.New(rand.NewSource(99))
	seeds := make([]chain.Handle, 0, batch)
	var events []chain.MergeEvent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ch.Len() < n/2 {
			b.StopTimer()
			ch = mk()
			rng = rand.New(rand.NewSource(99))
			b.StartTimer()
		}
		seeds = seeds[:0]
		for j := 0; j < batch; j++ {
			idx := rng.Intn(ch.Len())
			h := ch.At(idx)
			ch.SetPos(h, ch.Pos(idx+1))
			seeds = append(seeds, h)
		}
		events = ch.AppendResolveMergesAround(events[:0], seeds)
	}
}
