package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sim"
)

// The gather workload: the paper strategy under FSYNC on two ≈4100-robot
// chains, cloned and gathered over and over. The square is the
// generate.Rectangle(1024, 1024) boundary (6597 rounds, KernelDecide-heavy);
// the seeded Eden polyomino is dense in run starts and merges, so the
// Lemma 1/2 pair walk is a large share of its start rounds. No serve,
// workload or sched code runs.

// gatherInputs are the set-up chains: shape and size for generate.Named.
var gatherInputs = []struct {
	shape string
	size  int
}{
	{"rectangle", 4096}, // generate.Rectangle(1024, 1024)
	{"polyomino", 4100},
}

// gatherOptions runs the paper strategy sequentially, FSYNC.
func gatherOptions() (sim.Options, error) {
	strat, err := core.ParseStrategy("paper")
	if err != nil {
		return sim.Options{}, err
	}
	return sim.Options{Strategy: strat, Workers: 1}, nil
}

// gatherSetup generates the chains and builds an engine for each, then
// ends with a GC, so the cell maps the generators build do not count
// against the timed phase.
func gatherSetup(c config, opts sim.Options) ([]*chain.Chain, error) {
	chains := make([]*chain.Chain, len(gatherInputs))
	for i, in := range gatherInputs {
		if c.tr != nil {
			c.tr.begin(spGenerateNamed, i)
		}
		ch, err := generate.Named(in.shape, in.size, rand.New(rand.NewSource(c.seed)))
		if c.tr != nil {
			c.tr.end()
		}
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", in.shape, err)
		}
		if _, err := sim.NewEngine(ch.Clone(), opts); err != nil {
			return nil, fmt.Errorf("engine for %s: %w", in.shape, err)
		}
		chains[i] = ch
	}
	runtime.GC()
	return chains, nil
}

// gatherLayer accumulates the traced run's per-layer figures.
type gatherLayer struct {
	rounds, startRounds       int64
	stepNS, startStepNS       int64
	allocBytes, allocObjs     uint64
	startAllocBytes           uint64
	shadowAllocs              uint64 // objects the shadow calls allocated
	mergePatterns, activeRuns int64  // first pass only
	inFirstPass               bool
	ms0, ms1, ms2             runtime.MemStats
}

func runGather(c config) (*outcome, error) {
	out := &outcome{}
	opts, err := gatherOptions()
	if err != nil {
		return nil, err
	}
	var chains []*chain.Chain
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if c.tr != nil {
			c.tr.begin(spSetup, rep)
		}
		chains, err = gatherSetup(c, opts)
		if c.tr != nil {
			c.tr.end()
		}
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start))
	}
	heap, err := newHeapPeak()
	if err != nil {
		return nil, err
	}
	lay := &gatherLayer{}
	if c.tr != nil {
		// The observer only reads the round report; results stay
		// byte-identical, which the digest check below holds it to.
		opts.Observer = sim.ObserverFunc(func(_ *chain.Chain, rep core.RoundReport) {
			if lay.inFirstPass {
				lay.mergePatterns += int64(rep.MergePatterns)
				lay.activeRuns += int64(rep.ActiveRuns)
			}
		})
	}
	period := core.DefaultRunPeriod
	out.units = make([]time.Duration, 0, 1<<16)
	firstDigests := make([]string, len(chains))
	var first struct{ rounds, robotRounds, merges, starts, hops, conflicts, allocs int64 }
	gc := newGCCPU()
	gc0, cpu0 := gc.read()
	var ms runtime.MemStats
	unit := 0
	start := time.Now()
	for pass := 0; timedPhase(c, start, pass); pass++ {
		lay.inFirstPass = pass == 0
		for i, tmpl := range chains {
			out.attempted++
			runtime.ReadMemStats(&ms)
			mallocs0, shadow0 := ms.Mallocs, lay.shadowAllocs
			e, err := sim.NewEngine(tmpl.Clone(), opts)
			if err != nil {
				out.fail("%s: building engine: %v", gatherInputs[i].shape, err)
				continue
			}
			cont := true
			for cont && err == nil {
				t0 := time.Now()
				r0 := e.Strategy().Round()
				if c.tr != nil {
					c.tr.begin(spPeriod, unit)
				}
				for k := 0; k < period && cont && err == nil; k++ {
					if c.tr != nil {
						cont, err = tracedStep(c.tr, e, lay, unit)
					} else {
						cont, err = e.Step()
					}
				}
				if c.tr != nil {
					c.tr.end()
				}
				if e.Strategy().Round()-r0 == period {
					out.units = append(out.units, time.Since(t0))
				}
				unit++
			}
			if err != nil {
				out.fail("%s: round %d: %v", gatherInputs[i].shape, e.Strategy().Round(), err)
				continue
			}
			// The step loop ended gathered; Run seals the Result without
			// executing another round.
			res, err := e.Run()
			runtime.ReadMemStats(&ms)
			// A gather retains the most at its end, with the engine live.
			heap.force()
			runtime.KeepAlive(e)
			if err != nil || !res.Gathered {
				out.fail("%s: not gathered after %d rounds: %v", gatherInputs[i].shape, res.Rounds, err)
				continue
			}
			out.robotRounds += float64(res.InitialLen) * float64(res.Rounds)
			if limit := (2*period + 1) * res.InitialLen; res.Rounds > limit {
				out.fail("%s: %d rounds exceed the Theorem 1 cap (2L+1)n = %d", gatherInputs[i].shape, res.Rounds, limit)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(raw)
			digest := hex.EncodeToString(sum[:])
			if pass == 0 {
				firstDigests[i] = digest
				first.rounds += int64(res.Rounds)
				first.robotRounds += int64(res.InitialLen) * int64(res.Rounds)
				first.merges += int64(res.TotalMerges)
				first.starts += int64(res.TotalRunsStarted)
				first.hops += int64(res.TotalRunnerHops + res.TotalMergeHops + res.TotalStartHops)
				first.conflicts += int64(res.Anomalies.HopConflicts)
				first.allocs += int64(ms.Mallocs - mallocs0 - (lay.shadowAllocs - shadow0))
				checkPin(out, c.seed, "gather/"+gatherInputs[i].shape, digest)
			} else if digest != firstDigests[i] {
				out.fail("%s: pass %d result digest %s differs from pass 1 %s", gatherInputs[i].shape, pass+1, digest, firstDigests[i])
			}
		}
		out.passes++
	}
	out.wall = time.Since(start)
	out.peakHeap = heap.peak
	gc1, cpu1 := gc.read()
	out.count("rounds", first.rounds)
	out.count("robot_rounds", first.robotRounds)
	out.count("merges", first.merges)
	out.count("runs_started", first.starts)
	out.count("hops", first.hops)
	out.count("hop_conflicts", first.conflicts)
	out.count("allocs", first.allocs)
	if c.tr == nil {
		return out, nil
	}
	t := c.tr
	rounds := float64(lay.rounds)
	perRound := func(id spanID) float64 { return t.totalUS(id) / rounds }
	kernels := perRound(spMergeScan) + perRound(spCombine) + perRound(spDecide) + t.totalUS(spStartScan)/rounds
	stepUS := (float64(lay.stepNS)/1e3)/rounds + perRound(spReindex)
	out.layer = map[string]float64{
		"chain.reindex_us":                perRound(spReindex),
		"chain.merge_events":              float64(first.merges),
		"core.merge_scan_us":              perRound(spMergeScan),
		"core.combine_us":                 perRound(spCombine),
		"core.decide_us":                  perRound(spDecide),
		"core.start_scan_us":              t.meanUS(spStartScan),
		"core.rest_us":                    stepUS - kernels - perRound(spReindex),
		"core.merge_patterns":             float64(lay.mergePatterns),
		"core.runs_started":               float64(first.starts),
		"core.active_runs_mean":           float64(lay.activeRuns) / float64(first.rounds),
		"core.hops":                       float64(first.hops),
		"core.hop_conflicts":              float64(first.conflicts),
		"core.hop_accept_ratio":           float64(first.hops) / float64(first.hops+first.conflicts),
		"sim.step_us":                     stepUS,
		"sim.step_start_round_us":         float64(lay.startStepNS)/1e3/float64(lay.startRounds) + t.totalUS(spReindex)/rounds,
		"sim.alloc_bytes_per_round":       float64(lay.allocBytes) / rounds,
		"sim.alloc_bytes_per_start_round": float64(lay.startAllocBytes) / float64(lay.startRounds),
		"sim.allocs_per_round":            float64(lay.allocObjs) / rounds,
		"runtime.gc_cpu_share":            (gc1 - gc0) / (cpu1 - cpu0),
		"generate.named_ms":               t.meanUS(spGenerateNamed) / 1e3,
	}
	return out, nil
}

// tracedStep runs one round with the paper kernels timed by shadow calls
// on the round's input state just before Engine.Step. The kernels are
// read-only on the round state (DESIGN.md §9): they write only per-worker
// buffers and the merge plan, which Step rebuilds in full, so Step's
// own round is unchanged. The shadow decide sees runs started in the
// previous round as not yet visible — Step clears that flag first — which
// changes which decisions it computes but not how many. Allocation is
// measured around Step alone; what the shadow calls allocate is recorded
// apart, so the run's allocation count can leave it out.
func tracedStep(t *tracer, e *sim.Engine, lay *gatherLayer, unit int) (bool, error) {
	alg := e.Algorithm()
	ch := e.Chain()
	n := ch.Len()
	startRound := alg.Round()%alg.Config().RunPeriod == 0 && n >= core.MinChainForRuns
	runtime.ReadMemStats(&lay.ms0)
	t.begin(spRound, unit)
	t.begin(spReindex, unit)
	ch.Handles()
	t.end()
	t.begin(spMergeScan, unit)
	alg.KernelMergeScan(0, 0, n)
	t.end()
	t.begin(spCombine, unit)
	err := alg.CombineMergePlan()
	t.end()
	if err != nil {
		t.end()
		return false, fmt.Errorf("shadow CombineMergePlan: %w", err)
	}
	t.begin(spDecide, unit)
	alg.KernelDecide(0, 0, len(alg.Runs()))
	t.end()
	if startRound {
		t.begin(spStartScan, unit)
		alg.KernelStartScan(0, 0, n)
		t.end()
	}
	runtime.ReadMemStats(&lay.ms1)
	t.begin(spStep, unit)
	s0 := time.Now()
	cont, err := e.Step()
	stepNS := int64(time.Since(s0))
	t.end()
	t.end()
	runtime.ReadMemStats(&lay.ms2)
	bytes := lay.ms2.TotalAlloc - lay.ms1.TotalAlloc
	lay.shadowAllocs += lay.ms1.Mallocs - lay.ms0.Mallocs
	lay.rounds++
	lay.stepNS += stepNS
	lay.allocBytes += bytes
	lay.allocObjs += lay.ms2.Mallocs - lay.ms1.Mallocs
	if startRound {
		lay.startRounds++
		lay.startStepNS += stepNS
		lay.startAllocBytes += bytes
	}
	return cont, err
}
