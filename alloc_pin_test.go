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
// callbacks, deferred completions, deferred accesses' retry closures, the
// L2's request queues and invalidation lists). The baseline before pooling
// was ~130k allocs per run; the pooled path measures ~780, dominated by
// per-run setup (the cores' operation lists, stats tables, map growth).
// Building a retry closure on every L1 miss and a fresh workload stream
// per core measured ~2,230, which the pin at 2000 rejects; any
// reintroduced per-message or per-event allocation costs thousands per
// run.
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
	const maxAllocs = 2000
	n := testing.AllocsPerRun(3, run)
	t.Logf("quick Fig-3 run: %.0f allocs", n)
	if n > maxAllocs {
		t.Errorf("quick Fig-3 run: %.0f allocs, want <= %d (pre-pooling baseline was ~130000)", n, maxAllocs)
	}
}

// TestInterleavePathBytesPin pins the model checker's allocation per
// executed path on the quick handoff gate at fault budget 1. A job resets
// its worker's system, replays one explored state's decision prefix from
// the frontier's prefix tree into the worker's schedule buffer, and forks
// every successor from a snapshot of it, into buffers kept across paths,
// so a path costs ~340 B: its share of the exploration's two systems, the
// seen-state set, the tree's nodes and the layer buffers. Copying each
// path's choices and successor schedules, as the explorer did before the
// prefix tree, measured ~770 B, which the 384 B bound rejects (building a
// fresh system per path measured ~28 KB). The exploration runs on one
// worker: each worker builds one system per exploration, which on a
// many-core host would otherwise show up as per-path cost.
func TestInterleavePathBytesPin(t *testing.T) {
	cfg := quickInterleaveConfig()
	cfg.Parallelism = 1
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
	const maxBytes = 384
	if perPath > maxBytes {
		t.Errorf("quick interleave gate: %d B per executed path, want <= %d", perPath, maxBytes)
	}
}

// TestInterleavePathAllocsPin pins the model checker's allocation count
// per executed path on the quick handoff gate at fault budget 1. Each
// worker keeps one system, resets it before every job, begins it on the
// exploration's shared operation lists and forks a state's successors
// from one snapshot, whose buffers it keeps, and the protocol defers
// nothing it must allocate for on this gate, so a path pays only for its
// share of the two systems and of the checker's grown buffers: ~1.9
// allocations. Copying each path's choices and successor schedules
// measured ~3.8, which the bound of 2 rejects (building a fresh system per
// path measured ~252). As in TestInterleavePathBytesPin, the exploration
// runs on one worker.
func TestInterleavePathAllocsPin(t *testing.T) {
	cfg := quickInterleaveConfig()
	cfg.Parallelism = 1
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
	perPath := (after.Mallocs - before.Mallocs) / uint64(rep.Transitions)
	t.Logf("%d paths, %d allocations per path", rep.Transitions, perPath)
	const maxAllocs = 2
	if perPath > maxAllocs {
		t.Errorf("quick interleave gate: %d allocations per executed path, want <= %d", perPath, maxAllocs)
	}
}

// TestCoverageRunBytesPin pins the bytes and allocations per run of a
// quick FtDirCMP single-loss campaign (uniform, 20 ops/core, at most three
// slots per message type) on one worker, measured after a warm-up
// campaign. The campaign's worker builds one system and one recorder, with
// its 4,096-event obs ring, and resets both for every later run, which
// keeps the ring chunks, cache frames, table entries and cores the earlier
// runs allocated. A run measures ~14 KB and ~30 allocations, most of them
// the one system's construction spread over the campaign's 24 runs; a
// reset run pays for its injector, the cores' operation lists and what
// recovery allocates. Building a fresh system and recorder per run
// measured ~294 KB and ~440 allocations, which the bounds of 16 KB and 40
// reject.
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
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d runs, %d B and %d allocations per run", runs, bytes, allocs)
	const maxBytes, maxAllocs = 16 << 10, 40
	if bytes > maxBytes {
		t.Errorf("quick coverage campaign: %d B per run, want <= %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("quick coverage campaign: %d allocations per run, want <= %d", allocs, maxAllocs)
	}
}

// TestTable4RunBytesPin pins the bytes allocated by one fault-free run of
// the Table-4 system (DefaultConfig: 16 tiles, 32 KB L1s, 512 KB L2 banks)
// for FtDirCMP on uniform at 500 ops/core. Such a run touches only a few
// percent of the cache sets, so with frames allocated set by set on first
// fill it measures ~3.4 MB. Allocating each touched array's frames whole
// measured ~10.8 MB, which the 6 MB bound rejects.
func TestTable4RunBytesPin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = FtDirCMP
	cfg.OpsPerCore = 500
	run := func() {
		if _, err := Run(cfg, "uniform"); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perRun := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B allocated per run", perRun)
	const maxBytes = 6 << 20
	if perRun > maxBytes {
		t.Errorf("Table-4 FtDirCMP/uniform run at 500 ops/core: %d B, want <= %d", perRun, maxBytes)
	}
}
