package system

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/workload"
)

// TestFtDirCMPTargetedDrops drops a single message of every type at several
// points in the run; FtDirCMP must always recover and finish correctly.
func TestFtDirCMPTargetedDrops(t *testing.T) {
	for _, typ := range msg.AllTypes() {
		typ := typ
		t.Run(typ.String(), func(t *testing.T) {
			for _, nth := range []uint64{1, 3, 10} {
				cfg := smallConfig(FtDirCMP)
				cfg.OpsPerCore = 150
				cfg.Limit = 20_000_000
				inj := fault.NewNthOfType(typ, nth)
				cfg.Injector = inj
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(workload.Uniform(64, 0.5)); err != nil {
					t.Fatalf("drop %v #%d: %v", typ, nth, err)
				}
			}
		})
	}
}
