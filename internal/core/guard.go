package core

import (
	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// edgeGuard is the edge-conflict fixpoint both strategies settle illegal
// edges with, under every activation set (DESIGN.md §3.6), and its
// reusable buffers.
type edgeGuard struct{ suppressed, wave []chain.Handle }

// suppressIllegalHops deletes from hops every live hop that would leave an
// incident edge outside the chain-edge set, given the neighbours' live
// hops, and returns the suppressed robots (scratch, valid until the next
// call). Each pass decides against one state and suppresses all it found
// together, so the survivors do not depend on the order the hops were
// added. A suppression changes only the now-static robot's two edges, so
// after a first pass over every hop, each pass re-checks only the
// neighbours of the robots the previous one suppressed. hops keeps its
// insertion order, which is the move order.
func (g *edgeGuard) suppressIllegalHops(ch *chain.Chain, hops *chain.Scratch[grid.Vec]) []chain.Handle {
	g.suppressed, g.wave = g.suppressed[:0], g.wave[:0]
	for _, r := range hops.Keys() {
		if breaksEdge(ch, hops, r) {
			g.wave = append(g.wave, r)
		}
	}
	for len(g.wave) > 0 {
		from := len(g.suppressed)
		for _, r := range g.wave {
			if hops.Has(r) { // a robot between two suppressed ones is found twice
				hops.Delete(r)
				g.suppressed = append(g.suppressed, r)
			}
		}
		g.wave = g.wave[:0]
		for _, r := range g.suppressed[from:] {
			for _, nb := range [2]chain.Handle{ch.Prev(r), ch.Next(r)} {
				if breaksEdge(ch, hops, nb) {
					g.wave = append(g.wave, nb)
				}
			}
		}
	}
	return g.suppressed
}

// breaksEdge reports whether r has a live hop that would leave either
// incident edge outside the chain-edge set.
func breaksEdge(ch *chain.Chain, hops *chain.Scratch[grid.Vec], r chain.Handle) bool {
	h, ok := hops.Get(r)
	if !ok {
		return false
	}
	to := ch.PosOf(r).Add(h)
	for _, nb := range [2]chain.Handle{ch.Prev(r), ch.Next(r)} {
		nh, _ := hops.Get(nb) // zero when static, sleeping or suppressed
		if !ch.PosOf(nb).Add(nh).Sub(to).IsChainEdge() {
			return true
		}
	}
	return false
}
