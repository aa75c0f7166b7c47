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
