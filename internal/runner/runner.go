// Package runner executes independent simulation points concurrently.
//
// A sweep — throughput vs. flow count, completion time vs. load — is a
// set of runs that differ only in configuration and seed. Each run owns a
// private sim.Engine, so runs share no mutable state and the simulator's
// determinism guarantee (a run is a pure function of its seed) survives
// parallel execution: results are collected by input index, which makes
// the output byte-identical for any worker count.
//
// The package deliberately knows nothing about simulations. Map is a
// generic index-parallel map with panic isolation, context cancellation
// and serialized progress reporting; the core package layers sweep
// semantics on top.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes a Map call.
type Options struct {
	// Workers is the number of concurrent goroutines; values < 1 mean
	// runtime.GOMAXPROCS(0). Workers is always clamped to the job count.
	Workers int
	// OnProgress, when non-nil, is invoked after each job finishes with
	// the number of completed jobs and the total. Calls are serialized
	// (one at a time) but may arrive in any completion order; done is
	// monotonically increasing across calls.
	OnProgress func(done, total int)
}

// PanicError wraps a panic recovered from one job so the caller sees
// which input exploded and where, instead of losing the whole process.
type PanicError struct {
	// Index is the job input index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map runs fn for every index in [0, n) on a pool of workers and returns
// the results in input order. Each invocation must be independent: fn
// shares nothing with other invocations except what the caller closes
// over, and that must be read-only or internally synchronized.
//
// On the first error (or panic, wrapped as *PanicError) no new jobs are
// dispatched; jobs already running finish, and the error belonging to
// the lowest input index is returned alongside a nil slice. Context
// cancellation stops dispatch the same way and returns ctx.Err() if no
// job error outranks it.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, index int) (T, error)) ([]T, error) {
	if n <= 0 {
		return []T{}, nil
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)

	var (
		next    atomic.Int64 // next index to dispatch
		failed  atomic.Bool  // set on first error; stops dispatch
		mu      sync.Mutex   // guards done and serializes OnProgress
		done    int
		wg      sync.WaitGroup
		ctxDone = ctx.Done()
	)

	runOne := func(ctx context.Context, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				stack := make([]byte, 64<<10)
				stack = stack[:runtime.Stack(stack, false)]
				err = &PanicError{Index: i, Value: r, Stack: stack}
			}
		}()
		results[i], err = fn(ctx, i)
		return err
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				select {
				case <-ctxDone:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runOne(ctx, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				if opts.OnProgress != nil {
					mu.Lock()
					done++
					opts.OnProgress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
