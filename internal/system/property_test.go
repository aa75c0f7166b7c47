package system

// Property-based tests: the simulated memory system must behave like
// memory. For any random operation mix, fault pattern and protocol, every
// run must terminate with the coherence invariants intact and the
// data-value oracle satisfied; and the final owner copy of every line must
// hold the value of the last committed write (reference model).

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// randomWorkload generates an arbitrary finite operation list per core.
type randomWorkload struct {
	lines     int
	writeFrac float64
}

func (w *randomWorkload) Name() string { return "random" }

func (w *randomWorkload) Ops(core, cores, ops int, rng *sim.RNG) []workload.Op {
	out := make([]workload.Op, ops)
	for i := range out {
		out[i] = workload.Op{
			Line:  uint64(rng.Intn(w.lines)),
			Write: rng.Bool(w.writeFrac),
		}
	}
	return out
}

// TestPropertyRandomRunsStayCoherent: random workload shapes and fault
// rates, both protocols (faults only with FtDirCMP), always complete with
// invariants intact — Run itself enforces the oracle and the checker.
func TestPropertyRandomRunsStayCoherent(t *testing.T) {
	prop := func(seed uint64, linesSel, writeSel, rateSel uint8, ft bool) bool {
		p := DirCMP
		rate := 0
		if ft {
			p = FtDirCMP
			rate = []int{0, 1000, 5000, 20000}[rateSel%4]
		}
		cfg := smallConfig(p)
		cfg.OpsPerCore = 120
		cfg.Seed = seed
		if rate > 0 {
			cfg.Injector = fault.NewRate(rate, seed^0xabcdef)
		}
		s, err := New(cfg)
		if err != nil {
			return false
		}
		w := &randomWorkload{
			lines:     int(linesSel%200) + 4,
			writeFrac: float64(writeSel%100) / 100,
		}
		if _, err := s.Run(w); err != nil {
			t.Logf("seed=%d lines=%d write=%.2f rate=%d: %v",
				seed, w.lines, w.writeFrac, rate, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFinalMemoryMatchesReference: after any run, the owner copy
// of every line carries the version of the last committed write recorded
// by the oracle — nothing was lost or resurrected.
func TestPropertyFinalMemoryMatchesReference(t *testing.T) {
	prop := func(seed uint64, rateSel uint8) bool {
		rate := []int{0, 2000, 10000}[rateSel%3]
		cfg := smallConfig(FtDirCMP)
		cfg.OpsPerCore = 150
		cfg.Seed = seed
		if rate > 0 {
			cfg.Injector = fault.NewRate(rate, seed*31+7)
		}
		s, err := New(cfg)
		if err != nil {
			return false
		}
		if _, err := s.Run(workload.Uniform(64, 0.6)); err != nil {
			t.Logf("seed=%d rate=%d: %v", seed, rate, err)
			return false
		}
		oracle := s.Integrity()
		ok := true
		for _, a := range s.agents {
			a.InspectLines(func(v proto.LineView) {
				if !v.Owner {
					return
				}
				if want := oracle.LastVersion(v.Addr); v.Payload.Version != want {
					t.Logf("seed=%d rate=%d line %#x owner v%d, reference v%d",
						seed, rate, v.Addr, v.Payload.Version, want)
					ok = false
				}
			})
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyScriptedDropsAlwaysRecover: dropping any single arbitrary
// message index must never prevent completion.
func TestPropertyScriptedDropsAlwaysRecover(t *testing.T) {
	prop := func(seed uint64, index uint16) bool {
		cfg := smallConfig(FtDirCMP)
		cfg.OpsPerCore = 100
		cfg.Seed = seed % 8
		cfg.Injector = fault.NewScript(uint64(index))
		s, err := New(cfg)
		if err != nil {
			return false
		}
		if _, err := s.Run(workload.Uniform(48, 0.5)); err != nil {
			t.Logf("seed=%d index=%d: %v", seed%8, index, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
