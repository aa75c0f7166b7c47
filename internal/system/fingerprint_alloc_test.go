//go:build !race

// Allocation pins are meaningless under the race detector, which makes
// sync.Pool drop recycled items at random.

package system

import (
	"runtime"
	"testing"

	"repro/internal/msg"
	"repro/internal/workload"
)

// TestStateFingerprintAllocsPin pins the model checker's per-state
// fingerprint at ≤ 2 allocations on the quick system in the model
// checker's handoff shape. The per-line accumulators are bound once and
// the memory image is gathered into reused scratch, so the steady state
// allocates nothing; the headroom absorbs toolchain drift. The checker
// fingerprints every explored state, so a closure per agent or a
// reflection-based sort here costs hundreds of thousands of allocations
// per exploration.
func TestStateFingerprintAllocsPin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = FtDirCMP
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.Mems = 2
	cfg.Params.L1Size = 8 * 1024
	cfg.Params.L2Size = 32 * 1024
	cfg.OpsPerCore = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(workload.Handoff()); err != nil {
		t.Fatal(err)
	}
	if got := s.StateFingerprint(); got != s.StateFingerprint() {
		t.Fatal("fingerprint of an unchanged state is not stable")
	}
	const maxAllocs = 2
	n := testing.AllocsPerRun(20, func() { s.StateFingerprint() })
	t.Logf("StateFingerprint: %.0f allocs", n)
	if n > maxAllocs {
		t.Errorf("StateFingerprint: %.0f allocs, want <= %d", n, maxAllocs)
	}
}

// TestCheckCoherenceAllocsPin: CheckCoherence gathers its views into
// System scratch, so once a system (fresh or reset) has checked a state,
// checking the next terminal state allocates nothing. The model checker
// checks every terminal state it reaches.
func TestCheckCoherenceAllocsPin(t *testing.T) {
	cfg := smallConfig(FtDirCMP)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(workload.Suite()[0]); err != nil { // Run ends with a check
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(workload.Suite()[0]); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if errs := s.CheckCoherence(); len(errs) != 0 {
			t.Fatal(errs[0])
		}
	})
	if n != 0 {
		t.Errorf("CheckCoherence on a checked system: %.0f allocs, want 0", n)
	}
}

// TestResetBeginOpsAllocsPin: a used system reset and begun on prebuilt
// operation lists allocates nothing — the model checker does exactly this
// before every path it explores. The system first runs the workload to its
// end, so every structure a run grows has its capacity; the cores then
// start on the same lists each time, as an exploration's workers share
// one set. Reset then Begin, which rebuilt each core's workload stream,
// measured 10 (handoff) and 12 (uniform) allocations per restart on this
// 2x2 system.
func TestResetBeginOpsAllocsPin(t *testing.T) {
	for _, p := range []Protocol{DirCMP, FtDirCMP, TokenCMP, FtTokenCMP} {
		for _, w := range []workload.Workload{workload.Handoff(), workload.Suite()[0]} {
			cfg := smallConfig(p)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(w); err != nil {
				t.Fatal(err)
			}
			ops := workload.PerCore(w, cfg.Tiles(), cfg.OpsPerCore, cfg.Seed)
			n := testing.AllocsPerRun(20, func() {
				if err := s.Reset(); err != nil {
					t.Fatal(err)
				}
				s.BeginOps(w.Name(), ops)
			})
			if n != 0 {
				t.Errorf("%v/%s: Reset then BeginOps: %.0f allocs, want 0", p, w.Name(), n)
			}
		}
	}
}

// TestResetPathAcrossGCAllocsPin: a path run on a reset system allocates
// as much with two collections forced before it as without. The L1s keep
// their deferred hit completions on freelists of their own
// (proto.DeferredResults), which a collection leaves alone; with the
// records in a sync.Pool, which a collection empties (its victim cache
// outlives one), every path after the collections built its records
// again. Message pooling is off here, so every message allocates on both
// sides alike: the network's message freelist falls back to a sync.Pool
// (see docs/PERFORMANCE.md). Counted at the allocation sites
// (-memprofilerate 1, a collection before each of 100 paths), every path
// after the second allocates exactly alike on DirCMP and FtDirCMP; the
// Go runtime now and then allocates once more during a path for itself
// (thread and timer bookkeeping), so the pin compares the least count of
// ten paths on each side.
func TestResetPathAcrossGCAllocsPin(t *testing.T) {
	msg.SetPooling(false)
	defer msg.SetPooling(true)
	for _, p := range []Protocol{DirCMP, FtDirCMP, TokenCMP, FtTokenCMP} {
		cfg := smallConfig(p)
		w := workload.Suite()[0]
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := workload.PerCore(w, cfg.Tiles(), cfg.OpsPerCore, cfg.Seed)
		path := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			s.BeginOps(w.Name(), ops)
			if err := s.Engine().Run(cfg.Limit); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if !s.AllDone() {
				t.Fatalf("%v: path did not complete", p)
			}
			return after.Mallocs - before.Mallocs
		}
		least := func(collect bool) uint64 {
			n := ^uint64(0)
			for i := 0; i < 10; i++ {
				if collect {
					runtime.GC()
					runtime.GC()
				}
				n = min(n, path())
			}
			return n
		}
		path() // the first path sizes every freelist
		quiet, collected := least(false), least(true)
		t.Logf("%v/%s: %d allocations per path, %d after two collections", p, w.Name(), quiet, collected)
		if collected != quiet {
			t.Errorf("%v/%s: a reset path allocated %d times after two collections, %d without",
				p, w.Name(), collected, quiet)
		}
	}
}

// TestTokenResetPathAllocsPin pins what a path run on a reset token-protocol
// system allocates besides messages (pool misses are subtracted; they depend
// on when the collector last emptied the msg pool): nothing. The timers live
// by value in the MSHR, backup, blocked and home-line records, every
// deferred send or retry is a handler plus an argument, and the home-line
// and blocked records are kept for reuse, so neither a miss nor a line the
// run touches again after Reset allocates. Before, a path of this run
// allocated 4,151 (TokenCMP) and 10,469 (FtTokenCMP) times besides its
// messages. A map cleared by Reset draws a new hash seed, so the least
// count of five paths is pinned.
func TestTokenResetPathAllocsPin(t *testing.T) {
	for _, p := range []Protocol{TokenCMP, FtTokenCMP} {
		cfg := smallConfig(p)
		w := workload.Suite()[0]
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := workload.PerCore(w, cfg.Tiles(), cfg.OpsPerCore, cfg.Seed)
		path := func() uint64 {
			var before, after runtime.MemStats
			_, news0 := msg.PoolStats()
			runtime.ReadMemStats(&before)
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			s.BeginOps(w.Name(), ops)
			if err := s.Engine().Run(cfg.Limit); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			_, news1 := msg.PoolStats()
			if !s.AllDone() {
				t.Fatalf("%v: path did not complete", p)
			}
			return after.Mallocs - before.Mallocs - (news1 - news0)
		}
		path() // the first path sizes every freelist
		n := ^uint64(0)
		for i := 0; i < 5; i++ {
			n = min(n, path())
		}
		if n != 0 {
			t.Errorf("%v/%s: a reset path allocated %d times besides messages, want 0", p, w.Name(), n)
		}
	}
}
