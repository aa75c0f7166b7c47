//go:build !race

// The allocation pin is meaningless under the race detector: sync.Pool
// deliberately drops a random fraction of recycled items when -race is on,
// so allocs/op inflates nondeterministically. The pooling *correctness*
// tests (TestPoolingOffGoldenIdentity) still run under -race.

package repro

import (
	"runtime"
	"testing"
)

// TestFig3QuickAllocsPin pins the steady-state allocation count of the
// quick Figure-3 configuration with instrumentation off — the regression
// guard for the pooled hot path (messages, events, MSHR entries, timer
// callbacks, deferred completions). The baseline before pooling was
// ~130k allocs per run; the pooled path measures ~3k, dominated by
// per-run setup (workload streams, stats tables, map growth). The pin at
// 12000 leaves headroom for toolchain drift while still catching any
// reintroduced per-message or per-event allocation, which costs tens of
// thousands per run.
func TestFig3QuickAllocsPin(t *testing.T) {
	run := func() {
		cfg := benchConfig()
		cfg.Protocol = FtDirCMP
		if _, err := Run(cfg, "uniform"); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools: first runs pay one-time allocations for pool
	// populations sized to the working set.
	run()
	run()
	const maxAllocs = 12000
	if n := testing.AllocsPerRun(3, run); n > maxAllocs {
		t.Errorf("quick Fig-3 run: %.0f allocs, want <= %d (pre-pooling baseline was ~130000)", n, maxAllocs)
	}
}

// TestInterleavePathBytesPin pins the model checker's allocation per
// executed path on the quick handoff gate at fault budget 1. Every path
// re-executes its decision prefix on a freshly built system, so per-system
// setup is paid once per path: with cache frames allocated on first fill
// and no fixed-size event queue, a path costs ~64 KB. Building the caches
// eagerly raises that to ~190 KB, which the 128 KB bound rejects.
func TestInterleavePathBytesPin(t *testing.T) {
	cfg := quickInterleaveConfig()
	opts := InterleaveOptions{FaultBudget: 1}
	if _, err := Interleave(cfg, InterleaveWorkload, opts); err != nil { // warm pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Interleave(cfg, InterleaveWorkload, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transitions == 0 {
		t.Fatal("exploration executed no paths")
	}
	perPath := (after.TotalAlloc - before.TotalAlloc) / uint64(rep.Transitions)
	t.Logf("%d paths, %d B allocated per path", rep.Transitions, perPath)
	const maxBytes = 128 << 10
	if perPath > maxBytes {
		t.Errorf("quick interleave gate: %d B per executed path, want <= %d", perPath, maxBytes)
	}
}

// TestCoverageRunBytesPin pins the bytes allocated per run of a quick
// FtDirCMP single-loss campaign (uniform, 20 ops/core, at most three slots
// per message type). Every coverage run keeps a 4,096-event obs ring for
// its deadlock dumps but emits well under a thousand events, so the ring's
// storage is allocated in 1,024-event chunks as events arrive. With that,
// a run measures ~450 KB; zeroing the whole 557 KB ring up front measured
// ~875 KB per run, which the 640 KB bound rejects.
func TestCoverageRunBytesPin(t *testing.T) {
	cfg := quickCoverageConfig()
	cfg.Parallelism = 1
	opts := CoverageOptions{MaxSlotsPerType: 3}
	if _, err := Coverage(cfg, "uniform", opts); err != nil { // warm pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Coverage(cfg, "uniform", opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != rep.SlotsTested || rep.SlotsTested == 0 {
		t.Fatalf("campaign recovered %d of %d slots", rep.Recovered, rep.SlotsTested)
	}
	runs := uint64(1 + rep.SlotsTested) // the census run, then one per slot
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d runs, %d B allocated per run", runs, perRun)
	const maxBytes = 640 << 10
	if perRun > maxBytes {
		t.Errorf("quick coverage campaign: %d B per run, want <= %d", perRun, maxBytes)
	}
}
