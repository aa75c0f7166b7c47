//go:build !race

// Allocation pins are meaningless under the race detector, which makes
// sync.Pool drop recycled items at random.

package system

import (
	"testing"

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
