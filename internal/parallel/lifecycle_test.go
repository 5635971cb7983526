package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachPanicIsTypedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 8, func(i int) error {
			if i == 5 {
				panic("kaput")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v (%T), want *PanicError", workers, err, err)
		}
		if pe.Index != 5 || fmt.Sprint(pe.Value) != "kaput" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: bad PanicError %+v", workers, pe)
		}
		if want := "parallel: task 5 panicked: kaput"; pe.Error() != want {
			t.Fatalf("workers=%d: Error() = %q, want %q", workers, pe.Error(), want)
		}
	}
}

func TestForEachContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEachContext(ctx, workers, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks ran after pre-cancel", workers, ran.Load())
		}
	}
}

func TestForEachContextStopsDispatching(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEachContext(ctx, 1, 100, func(i int) error {
		ran.Add(1)
		if i == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() != 4 {
		t.Fatalf("%d tasks ran, want 4 (0..3 then stop)", ran.Load())
	}

	// Multi-worker: cancellation stops dispatch; in-flight tasks finish.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var ran2 atomic.Int32
	err = ForEachContext(ctx2, 4, 10000, func(i int) error {
		ran2.Add(1)
		if i == 10 {
			cancel2()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran2.Load(); n == 0 || n == 10000 {
		t.Fatalf("%d tasks ran, want a drained prefix", n)
	}
}

func TestForEachContextTaskErrorPrecedence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEachContext(ctx, 1, 10, func(i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the task error", err)
	}
}

func TestRunContextReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tasks := make([]Task[int], 10)
	for i := range tasks {
		i := i
		tasks[i] = func(index int) (int, error) {
			if i == 4 {
				cancel()
			}
			return i * i, nil
		}
	}
	res, err := RunContext(ctx, 1, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(res) != 10 {
		t.Fatalf("result slice has %d slots, want 10", len(res))
	}
	for i := 0; i <= 4; i++ {
		if res[i] != i*i {
			t.Fatalf("completed slot %d = %d, want %d", i, res[i], i*i)
		}
	}
}

func TestForEachAllDrainsEveryIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		errs := ForEachAll(workers, 20, func(i int) error {
			ran.Add(1)
			switch {
			case i == 3:
				panic("single bad cell")
			case i%7 == 0 && i > 0:
				return boom
			}
			return nil
		})
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: %d tasks ran, want all 20", workers, ran.Load())
		}
		if len(errs) != 20 {
			t.Fatalf("workers=%d: %d error slots, want 20", workers, len(errs))
		}
		for i, err := range errs {
			switch {
			case i == 3:
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Index != 3 {
					t.Fatalf("workers=%d: slot 3 = %v, want PanicError{Index: 3}", workers, err)
				}
			case i%7 == 0 && i > 0:
				if !errors.Is(err, boom) {
					t.Fatalf("workers=%d: slot %d = %v, want boom", workers, i, err)
				}
			default:
				if err != nil {
					t.Fatalf("workers=%d: slot %d = %v, want nil", workers, i, err)
				}
			}
		}
	}
}
