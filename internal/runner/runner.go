// Package runner executes batches of independent simulation jobs across a
// fixed pool of workers.
//
// Every simulation in this module is a pure function of its configuration
// and seeds, so campaign-style work — fault sweeps, the targeted-drop
// correctness campaign, figure regeneration — is embarrassingly parallel.
// The runner fans such batches out over GOMAXPROCS workers while preserving
// the observable semantics of the serial loops it replaces:
//
//   - Results are returned in submission order, regardless of completion
//     order.
//   - On failure, the error returned is the one the serial loop would have
//     hit first (the lowest-index failing job), and jobs that have not
//     started when a failure is observed are skipped, mirroring the serial
//     loop's early return. Jobs already in flight run to completion.
//   - A panicking job is captured as a *PanicError instead of taking down
//     the whole campaign.
//   - The calling goroutine is one of the workers, so parallelism 1 runs
//     the jobs inline, in order, stopping at the first error — exactly
//     the serial loop.
//
// Jobs must not share mutable state; in particular each job must own its
// RNG streams. Seed derives decorrelated per-job seeds from a campaign
// base seed when a batch needs them.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Parallelism normalizes a -j style knob: values <= 0 select all cores
// (GOMAXPROCS).
func Parallelism(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// PanicError is the error recorded for a job that panicked.
type PanicError struct {
	Index int    // job index within the batch
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// MapContext runs job(ctx, 0), …, job(ctx, n-1) on
// min(Parallelism(parallelism), n) workers and returns the n results in
// index order. If any job fails, MapContext returns a nil slice and the
// error of the lowest-index failing job. A job sees the context and is
// expected to honor it (simulations poll ctx.Done through the system cancel
// hook), and once ctx is cancelled no further job is dispatched — the batch
// returns the cancellation error, mirroring a serial loop interrupted
// between iterations. Jobs already in flight run to completion (or until
// they observe the context themselves).
func MapContext[T any](ctx context.Context, parallelism, n int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapProgressContext(ctx, parallelism, n, job, nil)
}

// MapProgressContext is MapContext with an optional progress callback,
// invoked serially after each job completes with the number of completed
// jobs and the batch size. Completion order is not submission order, so
// progress only conveys counts, not which jobs finished.
func MapProgressContext[T any](ctx context.Context, parallelism, n int, job func(ctx context.Context, i int) (T, error), progress func(done, total int)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	p := min(Parallelism(parallelism), n)

	out := make([]T, n)
	errs := make([]error, n)
	var (
		mu     sync.Mutex
		next   int
		done   int
		failed bool
	)
	// work pulls jobs in index order until the batch is exhausted or a job
	// has failed. The calling goroutine is one of the p workers, so at
	// parallelism 1 the batch runs inline, in order, and stops at the first
	// error — exactly the serial loop.
	work := func() {
		for {
			mu.Lock()
			if failed || next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()

			v, err := runJob(ctx, i, job)

			mu.Lock()
			out[i], errs[i] = v, err
			if err != nil {
				failed = true
			}
			done++
			if progress != nil {
				progress(done, n)
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for w := 1; w < p; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	// The lowest-index error is the one the serial loop would have hit:
	// a failure is only ever observed on a dispatched job, and dispatch is
	// in index order, so every job below the minimum failing index ran.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runJob invokes job(ctx, i), converting a panic into a *PanicError.
// Checking ctx before the call (not only inside the job) makes a cancelled
// batch stop scheduling work immediately, and makes the lowest-index-error
// rule surface the context error itself.
func runJob[T any](ctx context.Context, i int, job func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := ctx.Err(); err != nil {
		return v, err
	}
	return job(ctx, i)
}

// Seed derives the i-th job's seed from a campaign base seed using
// SplitMix64 finalization. Deriving per-job seeds from the job index (never
// from shared RNG state or completion order) is what keeps batch results
// independent of the parallelism level.
func Seed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
