package system

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/obs"
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
