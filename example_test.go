package gridgather_test

// The README's code snippets live here as compiling, output-checked
// Example functions (and mirror examples/quickstart and
// examples/baselines), so the documented API can never rot: if a
// signature or a deterministic result changes, go test fails before the
// docs lie.

import (
	"fmt"
	"log"

	gridgather "gridgather"
)

// ExampleGather is the README quickstart: build a hand-written closed
// chain, gather it, read the result.
func ExampleGather() {
	// A 5x2 rectangle loop of 14 robots, in chain order.
	positions := []gridgather.Vec{
		gridgather.V(0, 0), gridgather.V(1, 0), gridgather.V(2, 0),
		gridgather.V(3, 0), gridgather.V(4, 0), gridgather.V(5, 0),
		gridgather.V(5, 1), gridgather.V(5, 2),
		gridgather.V(4, 2), gridgather.V(3, 2), gridgather.V(2, 2),
		gridgather.V(1, 2), gridgather.V(0, 2),
		gridgather.V(0, 1),
	}
	ch, err := gridgather.NewChain(positions)
	if err != nil {
		log.Fatal(err)
	}
	res, err := gridgather.Gather(ch, gridgather.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gathered %d robots in %d rounds\n", res.InitialLen, res.Rounds)
	// Output:
	// gathered 14 robots in 2 rounds
}

// ExampleSpiral runs the classic worst case — a rectangular spiral
// corridor — and reads the instrumentation off the Result.
func ExampleSpiral() {
	ch, err := gridgather.Spiral(6)
	if err != nil {
		log.Fatal(err)
	}
	n, diameter := ch.Len(), ch.Diameter()
	res, err := gridgather.Gather(ch, gridgather.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spiral: n=%d robots, diameter %d\n", n, diameter)
	fmt.Printf("gathered in %d rounds (%.3f rounds/robot)\n", res.Rounds, res.RoundsPerRobot())
	fmt.Printf("merges performed: %d, runs started: %d\n", res.TotalMerges, res.TotalRunsStarted)
	// Output:
	// spiral: n=672 robots, diameter 27
	// gathered in 58 rounds (0.086 rounds/robot)
	// merges performed: 670, runs started: 137
}

// ExampleOptions_scheduler is the scheduler quickstart (DESIGN.md §8):
// the same square under the paper's FSYNC model and under round-robin
// SSYNC, where only a third of the chain is active per round.
func ExampleOptions_scheduler() {
	run := func(opts gridgather.Options) gridgather.Result {
		ch, err := gridgather.Rectangle(24, 24)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gridgather.Gather(ch, opts)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	fsync := run(gridgather.Options{})
	rr := run(gridgather.Options{Sched: gridgather.RoundRobinSched(3)})
	fmt.Printf("fsync: %d robots in %d rounds\n", fsync.InitialLen, fsync.Rounds)
	fmt.Printf("rr:3:  %d robots in %d rounds (gathered=%v)\n", rr.InitialLen, rr.Rounds, rr.Gathered)
	// Output:
	// fsync: 96 robots in 97 rounds
	// rr:3:  96 robots in 323 rounds (gathered=true)
}

// ExampleOptions_strategy is the strategy quickstart (DESIGN.md §10):
// the same square under the paper's fully local strategy and under the
// linear-time bounding-box contraction successor, which trades global
// vision for ~diameter/2 rounds.
func ExampleOptions_strategy() {
	run := func(opts gridgather.Options) gridgather.Result {
		ch, err := gridgather.Rectangle(24, 24)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gridgather.Gather(ch, opts)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	paper := run(gridgather.Options{})
	lin := run(gridgather.Options{Strategy: gridgather.StrategyLinTime})
	fmt.Printf("paper:   %d robots in %d rounds\n", paper.InitialLen, paper.Rounds)
	fmt.Printf("lintime: %d robots in %d rounds (strategy %s)\n", lin.InitialLen, lin.Rounds, lin.Strategy)
	// Output:
	// paper:   96 robots in 97 rounds
	// lintime: 96 robots in 12 rounds (strategy lintime)
}

// Example_baselines mirrors examples/baselines: the paper's pipelined
// strategy against the no-pipelining ablation and the global-vision
// contraction baseline (the lintime strategy) on one square-ring workload.
func Example_baselines() {
	mk := func() *gridgather.Chain {
		ch, err := gridgather.Rectangle(60, 60)
		if err != nil {
			log.Fatal(err)
		}
		return ch
	}
	fmt.Printf("workload: square ring, n=%d, diameter %d\n", mk().Len(), mk().Diameter())

	paper, err := gridgather.Gather(mk(), gridgather.Options{})
	if err != nil {
		log.Fatal(err)
	}
	seq, err := gridgather.Gather(mk(), gridgather.SequentialRunsOptions())
	if err != nil {
		log.Fatal(err)
	}
	contraction, err := gridgather.Gather(mk(), gridgather.Options{Strategy: gridgather.StrategyLinTime})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper (pipelined):  %4d rounds\n", paper.Rounds)
	fmt.Printf("sequential runs:    %4d rounds\n", seq.Rounds)
	fmt.Printf("global contraction: %4d rounds (global vision: ~diameter/2)\n", contraction.Rounds)
	// Output:
	// workload: square ring, n=240, diameter 60
	// paper (pipelined):   331 rounds
	// sequential runs:     552 rounds
	// global contraction:   30 rounds (global vision: ~diameter/2)
}

// ExampleVerify runs the model-based conformance check on a workload: the
// fast engine and the naive reference model execute in lockstep and must
// agree on every round (DESIGN.md §7).
func ExampleVerify() {
	ch, err := gridgather.Spiral(3)
	if err != nil {
		log.Fatal(err)
	}
	if err := gridgather.Verify(ch, gridgather.Config{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("engine and naive model agree, round by round")
	// Output:
	// engine and naive model agree, round by round
}

// ExampleParseSched parses the -sched flag syntax shared by every CLI.
func ExampleParseSched() {
	cfg, err := gridgather.ParseSched("bounded:2:p=0.5:seed=7")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cfg.Kind, cfg.K, cfg.P, cfg.Seed)
	// Output:
	// bounded 2 0.5 7
}
