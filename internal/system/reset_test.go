package system

import (
	"fmt"
	"reflect"
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

// TestResetTakesWhatNewTakes: Reset takes any injector New takes and
// refuses the ones New refuses. A tile or link death, alone or inside a
// Chain, is accepted as the injector a system was built with and as the
// next one, and a system reset to it runs as a fresh system built with it.
// An injector New refuses, Reset refuses with New's error, leaving the
// system and its injector as they were. On one system, a loss run after a
// tile death and a reliable run after a link death each end as on a fresh
// system, so no dead set, failure detector, halted controller or dead
// link outlives its run.
func TestResetTakesWhatNewTakes(t *testing.T) {
	loss := func() fault.Injector { return fault.NewNthOfType(msg.GetX, 3) }
	structural := map[string]func() fault.Injector{
		"tile death":   func() fault.Injector { return fault.NewTileDeath(1, msg.GetX, 5) },
		"link death":   func() fault.Injector { return fault.NewLinkDeath(0, 1, msg.GetX, 5) },
		"chained tile": func() fault.Injector { return fault.NewChain(loss(), fault.NewTileDeath(1, msg.GetX, 5)) },
		"nested link": func() fault.Injector {
			return fault.NewChain(fault.NewChain(fault.NewLinkDeath(0, 2, msg.Data, 3)), loss())
		},
	}
	w := workload.Suite()[0]
	config := func(p Protocol, inj fault.Injector) Config {
		cfg := smallConfig(p)
		cfg.OpsPerCore = 60
		cfg.Limit = 1_000_000 // DirCMP deadlocks on a tile death
		cfg.Injector, cfg.Obs = inj, obs.NewRecorder(4096)
		return cfg
	}
	build := func(cfg Config) *System {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// reset resets s to a new mk() and runs w; the run must end as on a
	// fresh system built with another.
	reset := func(s *System, mk func() fault.Injector) {
		t.Helper()
		want := runLoss(build(config(s.cfg.Protocol, mk())), w)
		next := mk()
		desc := "no injector"
		if next != nil {
			desc = next.Description()
		}
		if err := s.Reset(next); err != nil {
			t.Fatalf("Reset(%s) on a %v system: %v", desc, s.cfg.Protocol, err)
		}
		if s.cfg.Injector != next {
			t.Fatalf("Reset(%s) installed injector %v", desc, s.cfg.Injector)
		}
		if got := runLoss(s, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v after Reset(%s): %v\nfresh system: %v", s.cfg.Protocol, desc, got, want)
		}
	}
	none := func() fault.Injector { return nil }

	for _, p := range []Protocol{FtDirCMP, DirCMP} {
		for name, mk := range structural {
			t.Run(fmt.Sprintf("%v/%s", p, name), func(t *testing.T) {
				// As the built injector, then as the next one: after a
				// loss run and after a run under itself.
				s := build(config(p, mk()))
				runLoss(s, w)
				reset(s, loss)
				reset(s, mk)
				reset(s, mk)
				reset(s, none)
			})
		}
		t.Run(fmt.Sprintf("%v/leftovers", p), func(t *testing.T) {
			s := build(config(p, structural["tile death"]()))
			runLoss(s, w)
			reset(s, loss)
			reset(s, structural["link death"])
			reset(s, none)
		})
	}

	invalid := []struct {
		name string
		p    Protocol
		inj  func() fault.Injector
	}{
		{"non-adjacent link", FtDirCMP, func() fault.Injector {
			return fault.NewChain(fault.NewLinkDeath(0, 1, msg.GetX, 5), fault.NewLinkDeath(0, 3, msg.GetX, 5))
		}},
		{"two tile deaths", FtDirCMP, func() fault.Injector {
			return fault.NewChain(fault.NewTileDeath(1, msg.GetX, 5), fault.NewChain(fault.NewTileDeath(2, msg.GetS, 2)))
		}},
		{"victim out of range", DirCMP, func() fault.Injector { return fault.NewTileDeath(4, msg.GetX, 5) }},
		{"tile death under TokenCMP", TokenCMP, func() fault.Injector { return fault.NewTileDeath(1, msg.TrGetX, 2) }},
	}
	for _, tc := range invalid {
		t.Run("refuses/"+tc.name, func(t *testing.T) {
			_, want := New(config(tc.p, tc.inj()))
			if want == nil {
				t.Fatalf("New took a %s", tc.name)
			}
			for _, built := range []func() fault.Injector{loss, structural["link death"]} {
				// A system that has run under built must still show
				// that run's end after the refused Reset, and its next
				// Reset must still run as a fresh system.
				inj := built()
				s := build(config(tc.p, inj))
				_, err := s.Run(w)
				before := endOf(s, err)
				if err := s.Reset(tc.inj()); err == nil || err.Error() != want.Error() {
					t.Fatalf("Reset to a %s: %v, New's error: %v", tc.name, err, want)
				}
				if s.cfg.Injector != inj {
					t.Fatalf("a refused Reset changed the injector to %v", s.cfg.Injector)
				}
				if after := endOf(s, err); !reflect.DeepEqual(after, before) {
					t.Fatalf("a refused Reset changed the system: %v\nbefore it: %v", after, before)
				}
				reset(s, built)
			}
		})
	}
}
