package system

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runEnd is what a finished run shows: the statistics report (which
// includes the cycle count and every message and protocol counter) and
// the final memory image.
type runEnd struct {
	report  string
	memHash uint64
}

func finish(t *testing.T, s *System, w workload.Workload) runEnd {
	t.Helper()
	run, err := s.Run(w)
	if err != nil {
		t.Fatalf("Run(%s/%s): %v", s.cfg.Protocol, w.Name(), err)
	}
	return runEnd{run.Report(), s.MemoryImageHash()}
}

// TestResetRunMatchesFresh: a system reset while another workload was in
// full flight — messages in the network, timers armed, lines evicted to
// memory — must run a workload to exactly the end a fresh system reaches.
func TestResetRunMatchesFresh(t *testing.T) {
	suite := workload.Suite()
	for _, p := range []Protocol{DirCMP, FtDirCMP, TokenCMP, FtTokenCMP} {
		for i, w := range suite {
			t.Run(fmt.Sprintf("%v/%s", p, w.Name()), func(t *testing.T) {
				cfg := smallConfig(p)
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := finish(t, fresh, w)

				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Dirty the system twice: one complete run of the next
				// workload, then a run of this one cut off mid-flight.
				finish(t, s, suite[(i+1)%len(suite)])
				if err := s.Reset(); err != nil {
					t.Fatal(err)
				}
				s.Begin(w)
				if err := s.engine.Run(3000); err == nil {
					t.Fatal("the run drained before cycle 3000; the cut must leave events pending")
				}
				if err := s.Reset(); err != nil {
					t.Fatal(err)
				}
				if got := finish(t, s, w); got != want {
					t.Fatalf("after a reset the run ends at\n%s(memory %#x)\nbut a fresh system's at\n%s(memory %#x)",
						got.report, got.memHash, want.report, want.memHash)
				}
			})
		}
	}
}

// TestResetRejectsExternalState: an injector or an event recorder keeps
// state outside the system, so such a system cannot be reset.
func TestResetRejectsExternalState(t *testing.T) {
	withInjector := smallConfig(FtDirCMP)
	withInjector.Injector = fault.NewRate(1000, 1)
	withObs := smallConfig(FtDirCMP)
	withObs.Obs = obs.NewRecorder(64)
	for _, cfg := range []Config{withInjector, withObs} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(); err == nil {
			t.Errorf("Reset succeeded on a system with injector %v, recorder %v", cfg.Injector, cfg.Obs)
		}
	}
}
