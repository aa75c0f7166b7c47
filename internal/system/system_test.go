package system

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/workload"
)

// smallConfig returns a configuration small enough for fast tests but
// exercising all mechanisms (tiny caches force evictions and recalls).
func smallConfig(p Protocol) Config {
	cfg := DefaultConfig()
	cfg.Protocol = p
	cfg.MeshWidth = 2
	cfg.MeshHeight = 2
	cfg.Mems = 2
	cfg.Params.L1Size = 4 * 1024
	cfg.Params.L2Size = 16 * 1024
	cfg.OpsPerCore = 300
	return cfg
}

func mustRun(t *testing.T, cfg Config, w workload.Workload) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatalf("Run(%s/%s): %v", cfg.Protocol, w.Name(), err)
	}
	return s
}

func TestDirCMPAllWorkloads(t *testing.T) {
	for _, w := range workload.Suite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			s := mustRun(t, smallConfig(DirCMP), w)
			if s.Stats().Ops == 0 {
				t.Fatal("no operations completed")
			}
		})
	}
}

func TestFtDirCMPAllWorkloadsFaultFree(t *testing.T) {
	for _, w := range workload.Suite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			s := mustRun(t, smallConfig(FtDirCMP), w)
			st := s.Stats()
			if st.Proto.LostRequestTimeouts+st.Proto.LostUnblockTimeouts != 0 {
				t.Errorf("timeouts fired on a fault-free run: %+v", st.Proto)
			}
			if st.Proto.AcksOSent == 0 {
				t.Error("no ownership acknowledgments sent")
			}
		})
	}
}

func TestFtDirCMPUnderFaults(t *testing.T) {
	for _, rate := range []int{500, 2000} {
		cfg := smallConfig(FtDirCMP)
		cfg.Injector = fault.NewRate(rate, 42)
		s := mustRun(t, cfg, workload.Uniform(128, 0.5))
		st := s.Stats()
		if st.Net.TotalDropped() == 0 {
			t.Fatalf("rate %d: no messages dropped", rate)
		}
		if st.Proto.RequestsReissued == 0 && st.Proto.LostUnblockTimeouts == 0 {
			t.Errorf("rate %d: faults injected but no recovery happened", rate)
		}
	}
}

func TestDirCMPDeadlocksOnAnyLoss(t *testing.T) {
	cfg := smallConfig(DirCMP)
	cfg.Limit = 5_000_000
	cfg.Injector = fault.NewNthOfType(msg.GetX, 5)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(workload.Uniform(128, 0.5))
	if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("DirCMP survived a lost message: err=%v", err)
	}
}

// TestAllDoneCountsFinishedCores: the count of finished cores behind
// AllDone equals a scan of the cores after every event of a run, also
// when a tile death kills a core, before or after the core finished.
func TestAllDoneCountsFinishedCores(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Protocol
		inj  fault.Injector
		// killDone: the tile death kills a core that had finished.
		killDone bool
	}{
		{"fault-free", FtDirCMP, nil, false},
		{"lost GetX", FtDirCMP, fault.NewNthOfType(msg.GetX, 3), false},
		{"tile death", FtDirCMP, fault.NewTileDeath(1, msg.GetX, 5), false},
		{"late tile death", FtDirCMP, fault.NewTileDeath(0, msg.GetX, 152), true},
		{"DirCMP tile death", DirCMP, fault.NewTileDeath(3, msg.GetS, 4), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.p)
			cfg.OpsPerCore = 40
			cfg.Injector = tc.inj
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wasDone []bool
			killedDone := false
			check := func(step int) {
				scan := 0
				for i, c := range s.cores {
					if c.Done() {
						scan++
					}
					if c.Killed() && wasDone[i] {
						killedDone = true
					}
					wasDone[i] = c.Done() && !c.Killed()
				}
				if s.finished != scan || s.AllDone() != (scan == len(s.cores)) {
					t.Fatalf("event %d: %d cores counted finished, %d done by scan, AllDone %v",
						step, s.finished, scan, s.AllDone())
				}
			}
			if !s.AllDone() {
				t.Fatal("AllDone is false before Begin")
			}
			s.Begin(workload.Uniform(64, 0.5))
			wasDone = make([]bool, len(s.cores))
			check(0)
			step := 0
			for s.engine.Step() {
				step++
				check(step)
			}
			_, tileDeath := tc.inj.(*fault.TileDeath)
			if rcv := s.Recovery(); rcv.TileDeath != tileDeath || tileDeath && !s.cores[rcv.DeadTile].Killed() {
				t.Fatalf("tile death armed %v, fired %v, killed no core", tileDeath, rcv.TileDeath)
			}
			if killedDone != tc.killDone {
				t.Fatalf("the tile death killed a finished core: %v, want %v", killedDone, tc.killDone)
			}
		})
	}
}
