// Package parallel is the experiment harness's worker pool (DESIGN.md §5).
// It fans a list of independent tasks out across a bounded number of
// goroutines and collects the results back in task order, so callers that
// aggregate sequentially see exactly the same stream of values no matter
// how many workers ran or how the scheduler interleaved them.
//
// Determinism contract: a task must derive all of its randomness from its
// own task index (see TaskSeed) and must not touch state shared with other
// tasks. Under that contract the output of Run is bit-identical for every
// worker count, which is what lets `gatherbench -parallel 1` and
// `-parallel 8` produce byte-identical tables.
//
// Parallelism is across items only: experiments, gatherfuzz,
// workload.Expand and gatherd's job pool fan out here, while each engine
// steps its rounds on one goroutine (DESIGN.md §9).
package parallel
