package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error a recovered task panic converts to: one bad grid
// cell surfaces as a per-task failure — with the index that reproduces it
// deterministically via TaskSeed — instead of a goroutine crash taking down
// the whole sweep. errors.As recovers the index, original value and stack.
type PanicError struct {
	// Index is the task index whose fn panicked.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

// Error formats the panic like the pre-typed error string did.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// Task computes one grid cell of an experiment. The index it receives is
// its position in the task list handed to Run.
type Task[T any] func(index int) (T, error)

// Workers normalizes a requested worker count: values <= 0 select
// GOMAXPROCS, everything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes the tasks on up to workers goroutines (normalized through
// Workers) and returns their results in task order. On a failure no new
// tasks are dispatched (a bad cell surfaces promptly instead of burning
// the rest of a multi-minute sweep); in-flight tasks finish, the results
// computed so far remain in the slice, and the lowest-indexed recorded
// error is returned. On an all-success run the output is a pure function
// of the task list — the byte-identity half of the determinism contract.
// A nil or empty task list returns an empty result slice.
func Run[T any](workers int, tasks []Task[T]) ([]T, error) {
	return RunContext(context.Background(), workers, tasks)
}

// RunContext is Run under a context: when ctx is cancelled no new tasks are
// dispatched (exactly like a task failure), in-flight tasks finish, and the
// results computed so far are returned together with the context's error —
// the experiments grids drain cleanly on SIGINT instead of being killed
// mid-table. A task error still takes precedence over the context error.
func RunContext[T any](ctx context.Context, workers int, tasks []Task[T]) ([]T, error) {
	results := make([]T, len(tasks))
	errs := make([]error, len(tasks))
	// ForEachContext owns the pool; RunContext adds the result slice on
	// top. Each index is executed exactly once and writes only its own
	// slots, so the collection is race-free, and firstError reproduces the
	// lowest-indexed-error contract (the ForEachContext return value only
	// contributes the context error, when no task failed).
	ctxErr := ForEachContext(ctx, workers, len(tasks), func(i int) error {
		results[i], errs[i] = runTask(tasks[i], i)
		return errs[i]
	})
	if err := firstError(errs); err != nil {
		return results, err
	}
	return results, ctxErr
}

// ForEach executes fn(0..n-1) on up to workers goroutines without
// collecting results: the streaming variant of Run for sweeps whose task
// count makes a result slice pointless (the conformance stress harness
// fans millions of scenarios and aggregates into atomic counters). The
// contract matches Run: deterministic tasks seeded from their own index,
// fail-fast dispatch (no new tasks after a failure, in-flight tasks
// finish), panics converted to errors, and the lowest-indexed error
// returned.
func ForEach(workers, n int, fn func(index int) error) error {
	return ForEachContext(context.Background(), workers, n, fn)
}

// ForEachContext is ForEach under a context: cancellation behaves like a
// task failure — no new indices are dispatched, in-flight tasks finish, and
// the context's error is returned (unless a task error occurred first;
// task errors keep precedence so a cancelled failing campaign still reports
// its real failure).
func ForEachContext(ctx context.Context, workers, n int, fn func(index int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	guard := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}
	done := ctx.Done()
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := guard(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu     sync.Mutex
		minIdx = -1
		minErr error
		failed atomic.Bool
		next   = make(chan int)
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if err := guard(i); err != nil {
					mu.Lock()
					if minIdx == -1 || i < minIdx {
						minIdx, minErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	cancelled := false
dispatch:
	for i := 0; i < n; i++ {
		if failed.Load() {
			break
		}
		if done == nil {
			next <- i
			continue
		}
		// Check before the select: when a worker is ready to receive as
		// well, select picks a ready case at random, so an already
		// cancelled context could still dispatch.
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		select {
		case <-done:
			cancelled = true
			break dispatch
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	if minErr != nil {
		return minErr
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// ForEachAll is the draining variant of ForEach: every index runs to
// completion regardless of failures — a campaign that must report all of
// its cells (internal/sim's panic-containment campaign test) instead of
// stopping at the first bad one. It returns one error slot per index; with
// errors.As a *PanicError slot yields the failing task's index, so the
// caller can recompute its deterministic TaskSeed.
func ForEachAll(workers, n int, fn func(index int) error) []error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	guard := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = guard(i)
		}
		return errs
	}
	var (
		next = make(chan int)
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = guard(i) // disjoint slots: race-free
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

// runTask invokes one task, converting a panic into an error so a single
// bad grid cell cannot take down the whole sweep with a goroutine crash.
func runTask[T any](t Task[T], i int) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return t(i)
}

// firstError returns the error with the smallest task index, keeping error
// reporting deterministic across worker counts.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TaskSeed derives the RNG seed of one (configIndex, trial) grid cell from
// the experiment's base seed via chained SplitMix64 finalizers. The mapping
// is a pure function of (base, config, trial) — the root of the harness's
// determinism contract — and the avalanche mixing keeps the streams of
// neighbouring cells statistically unrelated.
func TaskSeed(base int64, config, trial int) int64 {
	x := uint64(base)
	x = mix64(x + 0x9e3779b97f4a7c15)
	x = mix64(x ^ uint64(uint32(config))<<21)
	x = mix64(x ^ uint64(uint32(trial)))
	return int64(x)
}

// mix64 is the SplitMix64 finalizer (Steele, Lea, Flood 2014): a bijection
// on 64-bit words with strong avalanche behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
