package system

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
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
				if err := s.Reset(nil); err != nil {
					t.Fatal(err)
				}
				s.Begin(w)
				if err := s.engine.Run(3000); err == nil {
					t.Fatal("the run drained before cycle 3000; the cut must leave events pending")
				}
				if err := s.Reset(nil); err != nil {
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

// TestResetTakesLossRefusesStructural: Reset accepts a system built with a
// message-loss injector or an event recorder, and installs a next
// message-loss injector; a tile or link death, alone or inside a Chain, is
// wired in by New, so Reset refuses it as the injector the system was
// built with and as the next one, and leaves the system as it was.
func TestResetTakesLossRefusesStructural(t *testing.T) {
	loss := func() fault.Injector { return fault.NewRate(1000, 1) }
	nth := func() fault.Injector { return fault.NewNthOfType(msg.GetX, 2) }
	structural := map[string]func() fault.Injector{
		"tile death":   func() fault.Injector { return fault.NewTileDeath(1, msg.GetX, 5) },
		"link death":   func() fault.Injector { return fault.NewLinkDeath(0, 1, msg.GetX, 5) },
		"chained tile": func() fault.Injector { return fault.NewChain(loss(), fault.NewTileDeath(1, msg.GetX, 5)) },
		"nested link": func() fault.Injector {
			return fault.NewChain(fault.NewChain(fault.NewLinkDeath(0, 2, msg.Data, 3)), loss())
		},
	}
	build := func(inj fault.Injector, rec *obs.Recorder) *System {
		t.Helper()
		cfg := smallConfig(FtDirCMP)
		cfg.Injector, cfg.Obs = inj, rec
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, s := range []*System{build(loss(), nil), build(nil, obs.NewRecorder(64)), build(nth(), obs.NewRecorder(64))} {
		for _, next := range []fault.Injector{nil, loss(), nth(), fault.NewChain(loss(), nth())} {
			if err := s.Reset(next); err != nil {
				t.Errorf("Reset(%v) on a system with injector %v, recorder %v: %v", next, s.cfg.Injector, s.cfg.Obs != nil, err)
			} else if s.cfg.Injector != next {
				t.Errorf("Reset(%v) installed injector %v", next, s.cfg.Injector)
			}
		}
	}
	for name, mk := range structural {
		if err := build(mk(), obs.NewRecorder(64)).Reset(nil); err == nil {
			t.Errorf("Reset succeeded on a system built with a %s", name)
		}
		built := loss()
		s := build(built, nil)
		if err := s.Reset(mk()); err == nil {
			t.Errorf("Reset to a %s succeeded", name)
		} else if s.cfg.Injector != built {
			t.Errorf("a refused Reset to a %s changed the injector to %v", name, s.cfg.Injector)
		}
	}
}
