package system

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestLostAckBDEventSequence forces one lost AckBD and checks that the
// structured event log tells the §3.3 recovery story in order: the
// injected drop, the lost-AckBD timeout at the AckO sender, the AckO
// reissued under a fresh serial number, and the recovery window closing.
func TestLostAckBDEventSequence(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	cfg.Injector = fault.NewNthOfType(msg.AckBD, 1)
	rec := obs.NewRecorder(1 << 14)
	cfg.Obs = rec
	sc := newScript(t, cfg)
	const addr = 0xb000
	sc.write(1, addr, 1)
	sc.write(0, addr, 2)
	sc.drain()

	evs := rec.Events()
	var inject *obs.Event
	for i := range evs {
		if evs[i].Kind == obs.KindFaultInject {
			inject = &evs[i]
			break
		}
	}
	if inject == nil {
		t.Fatal("no fault.inject event for the targeted drop")
	}
	if inject.Type != msg.AckBD {
		t.Fatalf("dropped type %v, want AckBD", inject.Type)
	}

	// Walk the events on the faulted line from the injection on; they
	// must contain, in order: timeout(lost_ackbd) -> reissue(AckO, fresh
	// SN) -> recover.
	line := inject.Addr
	stage := 0
	var reissue obs.Event
	for _, e := range evs {
		if e.Seq <= inject.Seq || e.Addr != line {
			continue
		}
		switch stage {
		case 0:
			if e.Kind == obs.KindTimeout && e.Timeout == obs.TimeoutLostAckBD {
				stage = 1
			}
		case 1:
			if e.Kind == obs.KindReissue {
				reissue = e
				stage = 2
			}
		case 2:
			if e.Kind == obs.KindRecover {
				stage = 3
			}
		}
	}
	if stage != 3 {
		t.Fatalf("recovery sequence incomplete (reached stage %d): want timeout(lost_ackbd) -> reissue -> recover on line %#x", stage, uint64(line))
	}
	if reissue.Type != msg.AckO {
		t.Errorf("reissued type %v, want AckO", reissue.Type)
	}
	if reissue.NewSN == reissue.OldSN {
		t.Errorf("reissue kept serial number %d", reissue.NewSN)
	}

	m := rec.Metrics()
	if m.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", m.FaultsInjected)
	}
	if m.FaultsRecovered != 1 {
		t.Fatalf("FaultsRecovered = %d, want 1", m.FaultsRecovered)
	}
	if m.RecoveryLatency.Count() != m.FaultsRecovered {
		t.Fatalf("recovery histogram count %d != FaultsRecovered %d",
			m.RecoveryLatency.Count(), m.FaultsRecovered)
	}
	if m.TimeoutsByKind[obs.TimeoutLostAckBD] == 0 {
		t.Error("lost_ackbd timeout not counted")
	}

	// The run recovered: the data is correct afterwards.
	if res := sc.read(2, addr); res.Value != 2 {
		t.Fatalf("data wrong after recovery: %+v", res)
	}
	sc.drain()
}

// TestObsRecorderOptional pins the zero-cost default: without a recorder
// configured, runs emit nothing and nothing is retained.
func TestObsRecorderOptional(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	sc := newScript(t, cfg) // cfg.Obs nil
	sc.write(0, 0x40, 1)
	sc.drain()
	if sc.s.Obs() != nil {
		t.Fatal("system invented a recorder")
	}
}

// TestL2BackupDeletesPairWithCreates: every backup an L2 bank releases
// (backup.delete) is one it announced (backup.create) on the same line.
// An eviction writeback becomes memory's backup either when the bank's
// Put gets its WbAck or, with that WbAck lost, when memory's WbPing finds
// the Put still waiting; the ping path once skipped the backup.create.
// Tiny L2 banks make evictions frequent, and 2% loss loses WbAcks.
func TestL2BackupDeletesPairWithCreates(t *testing.T) {
	deletes := 0
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := withLoss(tinyL2Config(FtDirCMP), 20000, seed)
		cfg.Seed = seed
		rec := obs.NewRecorder(1 << 20)
		cfg.Obs = rec
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(workload.Uniform(256, 0.5)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		type key struct {
			node msg.NodeID
			addr msg.Addr
		}
		open := map[key]int{}
		for _, e := range rec.Events() {
			if e.Unit != "l2" {
				continue
			}
			k := key{e.Node, e.Addr}
			switch e.Kind {
			case obs.KindBackupCreate:
				open[k]++
			case obs.KindBackupDelete:
				deletes++
				if open[k] == 0 {
					t.Errorf("seed %d: cycle %d: bank %d deletes a backup of %#x it never created", seed, e.Cycle, e.Node, e.Addr)
					continue
				}
				open[k]--
			}
		}
	}
	if deletes == 0 {
		t.Fatal("no L2 backup was deleted: the test no longer exercises eviction backups")
	}
}
