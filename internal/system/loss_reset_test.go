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

// lossEnd is everything a run under message loss shows: its error text (a
// deadlock dump names each stuck line's last recorded event), statistics
// report, memory image, and its event recorder's metrics and retained
// events.
type lossEnd struct {
	err     string
	report  string
	memHash uint64
	metrics obs.Metrics
	events  []obs.Event
}

func (e lossEnd) String() string {
	return fmt.Sprintf("error %q, memory %#x, %d events, %d faults injected, %d recovered\n%s",
		e.err, e.memHash, e.metrics.Events, e.metrics.FaultsInjected, e.metrics.FaultsRecovered, e.report)
}

// runLoss runs w on s, built or reset with its injector and recorder.
func runLoss(s *System, w workload.Workload) lossEnd {
	run, err := s.Run(w)
	end := lossEnd{report: run.Report(), metrics: *s.Obs().Metrics(), events: s.Obs().Events()}
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

// FuzzLossResetMatchesFresh runs two decoded loss slots back to back on
// one system, reset with the second slot's injector in between, and
// requires the second run to end exactly as on a fresh system built with
// that injector and a fresh recorder: the same error text, statistics,
// memory image, metrics and retained events. A recorder whose ring or
// recovery windows survived the reset would change the metrics, the
// events or, through a deadlock dump's last events, the error.
func FuzzLossResetMatchesFresh(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint8(2), uint8(4), uint8(3))
	f.Add(uint8(1), uint8(1), uint8(5), uint8(0), uint8(9), uint8(7))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(1), uint8(2), uint8(0))
	f.Add(uint8(3), uint8(3), uint8(8), uint8(5), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, proto, wl, t1, n1, t2, n2 uint8) {
		protocols := []Protocol{FtDirCMP, DirCMP, FtTokenCMP, TokenCMP}
		suite := workload.Suite()
		cfg := smallConfig(protocols[int(proto)%len(protocols)])
		cfg.OpsPerCore = 30
		cfg.Limit = 300_000 // a baseline protocol may spin on a loss until the limit
		w := suite[int(wl)%len(suite)]

		fresh := cfg
		fresh.Injector = lossSlot(t2, n2)
		fresh.Obs = obs.NewRecorder(4096)
		ref, err := New(fresh)
		if err != nil {
			t.Fatal(err)
		}
		want := runLoss(ref, w)

		cfg.Injector = lossSlot(t1, n1)
		cfg.Obs = obs.NewRecorder(4096)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runLoss(s, w)
		if err := s.Reset(lossSlot(t2, n2)); err != nil {
			t.Fatal(err)
		}
		if got := runLoss(s, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v/%s after a reset: %v\nfresh system: %v", cfg.Protocol, w.Name(), got, want)
		}
	})
}
