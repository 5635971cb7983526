// Command gatherviz renders a gathering run as ASCII animation frames or
// as an SVG overlay of sampled configurations.
//
// Usage:
//
//	gatherviz -shape comb -size 200 -every 10
//	gatherviz -shape spiral -size 400 -svg out.svg
//	gatherviz -shape rectangle -size 128 -sched rr:3 -every 50
//	gatherviz -shape spiral -size 400 -strategy lintime -every 2
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
	"gridgather/internal/trace"
)

func main() {
	var (
		shape     = flag.String("shape", "spiral", "workload family: "+strings.Join(generate.Names(), ", "))
		size      = flag.Int("size", 128, "approximate number of robots")
		seed      = flag.Int64("seed", 1, "random seed")
		every     = flag.Int("every", 10, "sample a frame every N rounds")
		svg       = flag.String("svg", "", "write an SVG overlay to this file instead of ASCII")
		scale     = flag.Int("scale", 8, "SVG pixels per grid unit")
		schedFlag = flag.String("sched", "fsync", "activation scheduler: fsync, rr:K, bounded:K[:p=P][:seed=S], random[:p=P][:seed=S]")
		stratFlag = flag.String("strategy", "paper", "gathering strategy: "+strings.Join(core.StrategyNames(), ", "))
	)
	flag.Parse()

	schedCfg, err := sched.Parse(*schedFlag)
	if err != nil {
		fatal(err)
	}
	strategy, err := core.ParseStrategy(*stratFlag)
	if err != nil {
		fatal(err)
	}
	ch, err := generate.Named(*shape, *size, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fatal(err)
	}
	rec := trace.NewRecorder()
	rec.Every = *every
	rec.InitialFrame(ch)
	res, err := sim.Gather(ch, sim.Options{Observer: rec, Sched: schedCfg, Strategy: strategy})
	if err != nil {
		fatal(err)
	}

	if *svg != "" {
		if err := os.WriteFile(*svg, []byte(trace.SVG(rec.Frames(), *scale)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d frames, gathered in %d rounds)\n", *svg, len(rec.Frames()), res.Rounds)
		return
	}
	fmt.Print(trace.RenderAll(rec.Frames()))
	fmt.Printf("\ngathered %d robots in %d rounds\n", res.InitialLen, res.Rounds)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gatherviz:", err)
	os.Exit(1)
}
