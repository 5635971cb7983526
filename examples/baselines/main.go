// Baseline comparison (experiment E12): the paper's local algorithm
// against its ablations, the global-vision contraction (the lintime
// strategy), and the open-chain strategies it generalises.
//
//	go run ./examples/baselines
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	gridgather "gridgather"
	"gridgather/internal/sim"
)

func main() {
	mk := func() *gridgather.Chain {
		ch, err := gridgather.Rectangle(60, 60)
		if err != nil {
			log.Fatal(err)
		}
		return ch
	}
	ref := mk()
	fmt.Printf("workload: square ring, n=%d, diameter %d\n\n", ref.Len(), ref.Diameter())

	gather := func(name string, opts gridgather.Options) {
		opts.MaxRounds = 50000
		res, err := gridgather.Gather(mk(), opts)
		if err != nil {
			if errors.Is(err, sim.ErrWatchdog) {
				fmt.Printf("%-22s DNF (live-lock, watchdog after %d rounds)\n", name, opts.MaxRounds)
				return
			}
			log.Fatal(err)
		}
		fmt.Printf("%-22s %6d rounds\n", name, res.Rounds)
	}
	gather("paper (pipelined)", gridgather.Options{})
	gather("sequential runs", gridgather.SequentialRunsOptions())
	mergeOnly := gridgather.MergeOnlyOptions()
	mergeOnly.MaxRounds = 2000
	res, err := gridgather.Gather(mk(), mergeOnly)
	if err != nil {
		fmt.Printf("%-22s DNF (no merge pattern ever appears without runs)\n", "merge-only")
	} else {
		fmt.Printf("%-22s %6d rounds\n", "merge-only", res.Rounds)
	}

	cres, err := gridgather.Gather(mk(), gridgather.Options{Strategy: gridgather.StrategyLinTime})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %6d rounds (global vision: ~diameter/2)\n", "global contraction", cres.Rounds)

	// Open-chain comparisons: what distinguishable/fixed endpoints buy.
	rng := rand.New(rand.NewSource(4))
	pts := []gridgather.Vec{gridgather.V(0, 0)}
	p := gridgather.V(0, 0)
	for len(pts) < 240 {
		switch rng.Intn(4) {
		case 0:
			p = p.Add(gridgather.V(1, 0))
		case 1:
			p = p.Add(gridgather.V(-1, 0))
		case 2:
			p = p.Add(gridgather.V(0, 1))
		default:
			p = p.Add(gridgather.V(0, -1))
		}
		pts = append(pts, p)
	}
	h, err := gridgather.NewManhattanHopper(pts)
	if err != nil {
		log.Fatal(err)
	}
	hres, err := h.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nopen chain, %d stations, fixed endpoints (KM09 reconstruction):\n", len(pts))
	fmt.Printf("%-22s %6d rounds -> %d stations (optimal %d)\n",
		"manhattan hopper", hres.Rounds, hres.FinalLen, hres.OptimalLen)
}
