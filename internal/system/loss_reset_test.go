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

// lossEnd is everything a faulty run shows: its error text (a deadlock
// dump names each stuck line's last recorded event and the dead nodes),
// statistics report, memory image, structural-fault recovery report, and
// its event recorder's metrics and retained events.
type lossEnd struct {
	err      string
	report   string
	memHash  uint64
	recovery RecoveryReport
	metrics  obs.Metrics
	events   []obs.Event
}

func (e lossEnd) String() string {
	return fmt.Sprintf("error %q, memory %#x, %d events, %d faults injected, %d recovered, recovery %+v\n%s",
		e.err, e.memHash, e.metrics.Events, e.metrics.FaultsInjected, e.metrics.FaultsRecovered, e.recovery, e.report)
}

// runLoss runs w on s, built or reset with its injector and recorder.
func runLoss(s *System, w workload.Workload) lossEnd {
	_, err := s.Run(w)
	return endOf(s, err)
}

// endOf is what s shows after a run that ended with err.
func endOf(s *System, err error) lossEnd {
	end := lossEnd{report: s.Stats().Report(), recovery: s.Recovery(), metrics: *s.Obs().Metrics(), events: s.Obs().Events()}
	end.metrics.ByMsgType = append([]uint64(nil), end.metrics.ByMsgType...)
	if err != nil {
		end.err = err.Error()
	} else {
		end.memHash = s.MemoryImageHash()
	}
	return end
}

// lossSlot decodes a message-loss slot: the nth (1 to 24) injected message
// of one type is lost.
func lossSlot(typ, nth uint8) fault.Injector {
	types := msg.AllTypes()
	return fault.NewNthOfType(types[int(typ)%len(types)], 1+uint64(nth)%24)
}

// faultSlot decodes a slot of any campaign on a 2x2 mesh: kind%3 picks a
// message loss, a tile death (a loss under the token protocols, which
// have no tile death) or a link death, kind/3 its victim tile or mesh
// link, and typ and nth the message whose injection fires it, as in
// lossSlot.
func faultSlot(p Protocol, kind, typ, nth uint8) fault.Injector {
	types := msg.AllTypes()
	t, n := types[int(typ)%len(types)], 1+uint64(nth)%24
	links := [][2]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}}
	switch victim := int(kind/3) % 4; {
	case kind%3 == 1 && !p.tokenBased():
		return fault.NewTileDeath(victim, t, n)
	case kind%3 == 2:
		return fault.NewLinkDeath(links[victim][0], links[victim][1], t, n)
	}
	return lossSlot(typ, nth)
}

// FuzzLossResetMatchesFresh runs two decoded slots (faultSlot: a message
// loss, a tile death or a link death) back to back on one system, reset
// with the second slot's injector in between, and requires the second run
// to end exactly as on a fresh system built with that injector and a
// fresh recorder: the same error text, statistics, memory image, recovery
// report, metrics and retained events. A recorder whose ring or recovery
// windows survived the reset would change the metrics, the events or,
// through a deadlock dump's last events, the error; a dead set, failure
// detector, dead link or halted controller left by the first slot would
// change the run.
func FuzzLossResetMatchesFresh(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(2), uint8(0), uint8(4), uint8(3))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(5), uint8(0), uint8(0), uint8(9), uint8(7))
	f.Add(uint8(2), uint8(2), uint8(0), uint8(3), uint8(1), uint8(0), uint8(2), uint8(0))
	f.Add(uint8(3), uint8(3), uint8(0), uint8(8), uint8(5), uint8(0), uint8(8), uint8(5))
	// Structural slots, each of which fires: a tile death, then a loss; a
	// loss, then a tile death; two tile deaths of different victims; a
	// tile death, then a link death; a link death, then a loss; under
	// FtTokenCMP a loss, then a link death; under TokenCMP two link deaths.
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint8(4), uint8(0), uint8(0), uint8(2))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(1), uint8(0), uint8(4), uint8(1), uint8(2))
	f.Add(uint8(0), uint8(2), uint8(7), uint8(1), uint8(1), uint8(1), uint8(0), uint8(2))
	f.Add(uint8(1), uint8(0), uint8(10), uint8(1), uint8(3), uint8(5), uint8(0), uint8(4))
	f.Add(uint8(0), uint8(1), uint8(2), uint8(1), uint8(3), uint8(0), uint8(2), uint8(0))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(19), uint8(0), uint8(8), uint8(19), uint8(2))
	f.Add(uint8(3), uint8(0), uint8(11), uint8(20), uint8(1), uint8(5), uint8(19), uint8(3))
	f.Fuzz(func(t *testing.T, proto, wl, k1, t1, n1, k2, t2, n2 uint8) {
		protocols := []Protocol{FtDirCMP, DirCMP, FtTokenCMP, TokenCMP}
		suite := workload.Suite()
		cfg := smallConfig(protocols[int(proto)%len(protocols)])
		cfg.OpsPerCore = 30
		cfg.Limit = 300_000 // a baseline protocol may spin on a loss until the limit
		w := suite[int(wl)%len(suite)]

		fresh := cfg
		fresh.Injector = faultSlot(cfg.Protocol, k2, t2, n2)
		fresh.Obs = obs.NewRecorder(4096)
		ref, err := New(fresh)
		if err != nil {
			t.Fatal(err)
		}
		want := runLoss(ref, w)

		cfg.Injector = faultSlot(cfg.Protocol, k1, t1, n1)
		cfg.Obs = obs.NewRecorder(4096)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runLoss(s, w)
		if err := s.Reset(faultSlot(cfg.Protocol, k2, t2, n2)); err != nil {
			t.Fatal(err)
		}
		if got := runLoss(s, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v/%s after a reset: %v\nfresh system: %v", cfg.Protocol, w.Name(), got, want)
		}
	})
}
