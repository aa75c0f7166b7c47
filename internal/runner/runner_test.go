package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

var ctx = context.Background()

func TestMapPreservesSubmissionOrder(t *testing.T) {
	const n = 200
	out, err := MapContext(ctx, 8, n, func(_ context.Context, i int) (int, error) {
		// Stagger completion so late-submitted jobs finish first.
		if i%3 == 0 {
			time.Sleep(time.Duration(n-i) * time.Microsecond)
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("len = %d, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyBatch(t *testing.T) {
	out, err := MapContext(ctx, 4, 0, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	// Every job from 5 up fails with a distinct error; the winner must be
	// job 5's, like a serial loop's first error, for every parallelism.
	for _, p := range []int{1, 2, 8} {
		out, err := MapContext(ctx, p, 50, func(_ context.Context, i int) (int, error) {
			if i >= 5 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if out != nil {
			t.Fatalf("p=%d: results not nil on error", p)
		}
		if err == nil || err.Error() != "job 5 failed" {
			t.Fatalf("p=%d: err = %v, want job 5's", p, err)
		}
	}
}

func TestMapPanicCaptured(t *testing.T) {
	for _, p := range []int{1, 4} {
		_, err := MapContext(ctx, p, 10, func(_ context.Context, i int) (int, error) {
			if i == 2 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("p=%d: err = %v, want *PanicError", p, err)
		}
		if pe.Index != 2 || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("p=%d: PanicError = %+v", p, pe)
		}
	}
}

func TestMapSerialStopsAtFirstError(t *testing.T) {
	var ran [5]bool
	_, err := MapContext(ctx, 1, 5, func(_ context.Context, i int) (int, error) {
		ran[i] = true
		if i == 1 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !ran[0] || !ran[1] || ran[2] || ran[3] || ran[4] {
		t.Fatalf("serial run pattern %v, want jobs after the failure skipped", ran)
	}
}

func TestMapSkipsUnstartedAfterFailure(t *testing.T) {
	// With one worker pulling jobs in order, a failure on job 0 must keep
	// later jobs from starting even on the concurrent path (p>1 but n
	// clamped below keeps 2 workers). Job indices well past the failure
	// are the interesting ones: they may already be claimed by the second
	// worker, but the tail must be skipped.
	var started atomic.Int32
	_, err := MapContext(ctx, 2, 1000, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		return 0, errors.New("immediate failure")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d jobs ran despite early failure", n)
	}
}

func TestMapProgress(t *testing.T) {
	for _, p := range []int{1, 4} {
		var calls []int
		out, err := MapProgressContext(ctx, p, 20, func(_ context.Context, i int) (int, error) { return i, nil },
			func(done, total int) {
				if total != 20 {
					t.Errorf("total = %d", total)
				}
				calls = append(calls, done)
			})
		if err != nil || len(out) != 20 {
			t.Fatalf("p=%d: out=%v err=%v", p, out, err)
		}
		if len(calls) != 20 {
			t.Fatalf("p=%d: %d progress calls, want 20", p, len(calls))
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("p=%d: progress sequence %v", p, calls)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const limit = 3
	var cur, peak atomic.Int32
	_, err := MapContext(ctx, limit, 100, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("observed %d concurrent jobs, limit %d", p, limit)
	}
}

func TestParallelismNormalization(t *testing.T) {
	if Parallelism(0) < 1 || Parallelism(-3) < 1 {
		t.Fatal("non-positive parallelism must map to at least one worker")
	}
	if Parallelism(7) != 7 {
		t.Fatalf("Parallelism(7) = %d", Parallelism(7))
	}
}

func TestSeedDerivation(t *testing.T) {
	seen := make(map[uint64]int)
	for _, base := range []uint64{0, 1, 42} {
		for i := 0; i < 1000; i++ {
			s := Seed(base, i)
			if s == 0 {
				t.Fatalf("Seed(%d,%d) = 0", base, i)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %d (job %d) seen at %d", s, i, prev)
			}
			seen[s] = i
		}
	}
	if Seed(9, 4) != Seed(9, 4) {
		t.Fatal("Seed is not deterministic")
	}
}
