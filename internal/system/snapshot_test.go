package system

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/noc"
	"repro/internal/workload"
)

// runOn runs a begun system on to its end and judges it, as Run does
// after Begin.
func runOn(t *testing.T, s *System) runEnd {
	t.Helper()
	if !s.engine.RunUntil(s.cfg.Limit, s.AllDone) && s.engine.Pending() > 0 {
		t.Fatalf("%v: cycle limit reached", s.cfg.Protocol)
	}
	s.run.Cycles = s.engine.Now()
	for _, c := range s.cores {
		s.run.Ops += c.Completed()
	}
	if err := s.Finish(); err != nil {
		t.Fatalf("%v: %v", s.cfg.Protocol, err)
	}
	return runEnd{s.run.Report(), s.MemoryImageHash()}
}

// TestRestoreRunsOnAsBefore: a system snapshotted mid-run, with lines
// evicted from tiny L2 banks to memory, messages in flight, timers armed
// and every route drawn from the adaptive generator, must run on from each
// restore to exactly the end a run that never stopped reaches. The model
// checker's tests (internal/mc) fork at choice points with deterministic
// routing, which choice delivery requires; this one covers the generator.
func TestRestoreRunsOnAsBefore(t *testing.T) {
	for _, p := range []Protocol{DirCMP, FtDirCMP, TokenCMP, FtTokenCMP} {
		for _, w := range []workload.Workload{workload.Uniform(512, 0.5), workload.Migratory(64)} {
			t.Run(fmt.Sprintf("%v/%s", p, w.Name()), func(t *testing.T) {
				cfg := tinyL2Config(p)
				cfg.Net.Routing = noc.RoutingAdaptive
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := finish(t, fresh, w)

				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Restore(); !errors.Is(err, ErrNoSnapshot) {
					t.Fatalf("Restore before any snapshot = %v, want ErrNoSnapshot", err)
				}
				s.Begin(w)
				if err := s.engine.Run(3000); err == nil {
					t.Fatal("the run drained before cycle 3000; the cut must leave events pending")
				}
				if err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if i > 0 {
						if err := s.Restore(); err != nil {
							t.Fatal(err)
						}
					}
					if got := runOn(t, s); got != want {
						t.Fatalf("run %d from the snapshot ends at\n%+v\nbut a run without one at\n%+v", i, got, want)
					}
				}
				if err := s.Reset(nil); err != nil {
					t.Fatal(err)
				}
				if err := s.Restore(); !errors.Is(err, ErrNoSnapshot) {
					t.Fatalf("Restore after Reset = %v, want ErrNoSnapshot", err)
				}
			})
		}
	}
}
