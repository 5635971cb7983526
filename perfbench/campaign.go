package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"runtime"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
	"gridgather/internal/workload"
)

// The campaign workload: the embedded stress preset with the workload seed
// as its spec seed — all twelve families including the hostile byte soup,
// log-uniform sizes 8–256, the fsync, rr, bounded and random schedulers,
// and both strategies. Items run one at a time through the per-item calls
// workload.Execute makes, so per-item set-up, the schedulers, lintime and
// the stall detector carry the time while the large-n paper kernels barely
// run.

// campaignItems is the number of items expanded from the preset: enough
// that the share of stalled items, which dominate the tail, varies little
// from seed to seed.
const campaignItems = 8000

// maxItemRounds sizes the traced run's per-round chain-length record; it
// covers the watchdog budget of every item the preset can draw.
const maxItemRounds = 1 << 18

func campaignSetup(c config) ([]workload.Item, error) {
	spec, err := workload.Preset("stress")
	if err != nil {
		return nil, err
	}
	spec.Seed = c.seed
	spec.Items = campaignItems
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	items := make([]workload.Item, spec.Items)
	for i := range items {
		if c.tr != nil {
			c.tr.begin(spExpandItem, i)
		}
		items[i], err = spec.ExpandItem(i)
		if c.tr != nil {
			c.tr.end()
		}
		if err != nil {
			return nil, err
		}
	}
	runtime.GC()
	return items, nil
}

func runCampaign(c config) (*outcome, error) {
	out := &outcome{}
	var items []workload.Item
	var err error
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if c.tr != nil {
			c.tr.begin(spSetup, rep)
		}
		items, err = campaignSetup(c)
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

	// Traced runs record the chain length every round starts with, then
	// replay that (round, n) sequence into a twin scheduler built from the
	// item's config, timing its Activate calls.
	var lens []int
	var observer sim.Observer
	var activeBuf []bool
	if c.tr != nil {
		lens = make([]int, 0, maxItemRounds)
		activeBuf = make([]bool, 0, workload.MaxSize*4)
		observer = sim.ObserverFunc(func(ch *chain.Chain, _ core.RoundReport) {
			lens = append(lens, ch.Len())
		})
	}

	out.units = make([]time.Duration, 0, 1<<16)
	var first struct {
		rounds, robotRounds, merges, starts, hops, conflicts, allocs, allocBytes int64
		stalled, watchdog, gathered, dnfRobotRounds                              int64
	}
	var firstDigest string
	var ms runtime.MemStats
	gc := newGCCPU()
	gc0, cpu0 := gc.read()
	unit := 0
	start := time.Now()
	for pass := 0; timedPhase(c, start, pass); pass++ {
		h := sha256.New()
		enc := json.NewEncoder(h)
		for _, it := range items {
			out.attempted++
			if pass == 0 {
				runtime.ReadMemStats(&ms)
			}
			mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
			t0 := time.Now()
			if c.tr != nil {
				c.tr.begin(spItem, unit)
				c.tr.begin(spFromBytes, unit)
			}
			ch, err := it.Chain()
			if c.tr != nil {
				c.tr.end()
			}
			if err != nil {
				if c.tr != nil {
					c.tr.end()
				}
				out.fail("item %d: rebuilding scenario: %v", it.Index, err)
				continue
			}
			opts := it.Options()
			opts.Workers = 1
			if c.tr != nil {
				opts.Observer = observer
				lens = append(lens[:0], ch.Len())
				c.tr.begin(spNewEngine, unit)
			}
			e, err := sim.NewEngine(ch, opts)
			if c.tr != nil {
				c.tr.end()
			}
			if err != nil {
				if c.tr != nil {
					c.tr.end()
				}
				out.fail("item %d: building engine: %v", it.Index, err)
				continue
			}
			if c.tr != nil {
				c.tr.begin(spRun, unit)
			}
			res, err := e.Run()
			if c.tr != nil {
				c.tr.end()
				c.tr.end()
			}
			out.units = append(out.units, time.Since(t0))
			if pass == 0 {
				runtime.ReadMemStats(&ms)
			}
			if c.tr != nil {
				activeBuf = replayScheduler(c.tr, it.Sched, lens[:res.Rounds], activeBuf, unit)
			}
			unit++
			out.robotRounds += float64(res.InitialLen) * float64(res.Rounds)

			rec := workload.Record{Item: it, Gathered: err == nil, Result: res}
			switch {
			case err == nil:
			case errors.Is(err, sim.ErrWatchdog):
				rec.DNF = workload.DNFWatchdog
			case errors.Is(err, sim.ErrStalled):
				rec.DNF = workload.DNFStalled
			default:
				out.fail("item %d (%s, n=%d): %v", it.Index, it.Family, it.N, err)
				continue
			}
			if err := enc.Encode(rec); err != nil {
				return nil, err
			}
			if pass > 0 {
				continue
			}
			rr := int64(res.InitialLen) * int64(res.Rounds)
			first.rounds += int64(res.Rounds)
			first.robotRounds += rr
			first.merges += int64(res.TotalMerges)
			first.starts += int64(res.TotalRunsStarted)
			first.hops += int64(res.TotalRunnerHops + res.TotalMergeHops + res.TotalStartHops)
			first.conflicts += int64(res.Anomalies.HopConflicts)
			first.allocs += int64(ms.Mallocs - mallocs0)
			first.allocBytes += int64(ms.TotalAlloc - bytes0)
			switch rec.DNF {
			case workload.DNFStalled:
				first.stalled++
				first.dnfRobotRounds += rr
			case workload.DNFWatchdog:
				first.watchdog++
				first.dnfRobotRounds += rr
			default:
				first.gathered++
			}
		}
		heap.force()
		digest := hex.EncodeToString(h.Sum(nil))
		if pass == 0 {
			firstDigest = digest
			checkPin(out, c.seed, "campaign", digest)
		} else if digest != firstDigest {
			out.fail("pass %d record stream digest %s differs from pass 1 %s", pass+1, digest, firstDigest)
		}
		out.passes++
	}
	out.wall = time.Since(start)
	out.peakHeap = heap.peak
	gc1, cpu1 := gc.read()
	out.count("items", int64(len(items)))
	out.count("rounds", first.rounds)
	out.count("robot_rounds", first.robotRounds)
	out.count("merges", first.merges)
	out.count("runs_started", first.starts)
	out.count("hops", first.hops)
	out.count("hop_conflicts", first.conflicts)
	out.count("stalled_items", first.stalled)
	out.count("watchdog_items", first.watchdog)
	out.count("allocs", first.allocs)
	if c.tr == nil {
		return out, nil
	}
	t := c.tr
	n := float64(len(items))
	perItem := func(id spanID) float64 { return t.totalUS(id) / float64(t.agg[spItem].count) }
	out.layer = map[string]float64{
		"chain.merge_events":        float64(first.merges),
		"core.runs_started":         float64(first.starts),
		"core.hops":                 float64(first.hops),
		"core.hop_conflicts":        float64(first.conflicts),
		"core.hop_accept_ratio":     float64(first.hops) / float64(first.hops+first.conflicts),
		"runtime.gc_cpu_share":      (gc1 - gc0) / (cpu1 - cpu0),
		"sim.new_engine_us":         perItem(spNewEngine),
		"sim.run_us":                perItem(spRun),
		"sim.alloc_bytes_per_item":  float64(first.allocBytes) / n,
		"sim.stalled_items":         float64(first.stalled),
		"sim.watchdog_items":        float64(first.watchdog),
		"sim.dnf_robot_round_share": float64(first.dnfRobotRounds) / float64(first.robotRounds),
		"sched.activate_us":         perItem(spActivate),
		"generate.from_bytes_us":    perItem(spFromBytes),
		"workload.expand_item_us":   t.meanUS(spExpandItem),
		"workload.gathered_ratio":   float64(first.gathered) / n,
	}
	return out, nil
}

// replayScheduler feeds a twin of the item's scheduler the engine's
// (round, n) sequence and times the Activate calls. FSYNC items get no
// span: the engine never activates on its FSYNC fast path.
func replayScheduler(t *tracer, cfg sched.Config, lens []int, buf []bool, unit int) []bool {
	s, err := sched.New(cfg)
	if err != nil || s.FullySync() {
		return buf
	}
	t.begin(spActivate, unit)
	for round, n := range lens {
		if cap(buf) < n {
			buf = make([]bool, n)
		}
		buf = buf[:n]
		s.Activate(round, buf)
	}
	t.end()
	return buf
}
