package system

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/workload"
)

// Token-protocol system tests: TokenCMP fault-free and FtTokenCMP under
// faults, mirroring the directory-protocol suite. They quantify the §5
// comparison between the authors' two fault-tolerant protocols.

func TestTokenCMPAllWorkloads(t *testing.T) {
	for _, w := range workload.Suite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			s := mustRun(t, smallConfig(TokenCMP), w)
			if s.Stats().Ops == 0 {
				t.Fatal("no operations completed")
			}
			if s.Stats().Proto.TokenRecreations != 0 {
				t.Error("recreations on the non-ft protocol")
			}
		})
	}
}

func TestFtTokenCMPAllWorkloadsFaultFree(t *testing.T) {
	for _, w := range workload.Suite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			s := mustRun(t, smallConfig(FtTokenCMP), w)
			st := s.Stats()
			if st.Proto.TokenRecreations != 0 {
				t.Errorf("recreations on a fault-free run: %d", st.Proto.TokenRecreations)
			}
		})
	}
}

func TestFtTokenCMPUnderFaults(t *testing.T) {
	for _, rate := range []int{500, 2000} {
		cfg := smallConfig(FtTokenCMP)
		cfg.OpsPerCore = 200
		cfg.Injector = fault.NewRate(rate, 42)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(workload.Uniform(128, 0.5)); err != nil {
			t.Fatalf("rate=%d: %v\n%s", rate, err, s.DumpStuck())
		}
	}
}

func TestTokenCMPStallsOnLoss(t *testing.T) {
	cfg := smallConfig(TokenCMP)
	cfg.OpsPerCore = 200
	cfg.Limit = 3_000_000
	// Token protocols retry transient requests, so a lost request message
	// self-heals; losing an owner-token grant is fatal for the base
	// protocol (the token and data are gone for good).
	cfg.Injector = fault.NewNthOfType(msg.TokenGrant, 5)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(workload.Uniform(64, 0.5))
	if err == nil {
		t.Skip("the 5th grant carried no owner token in this schedule")
	}
}

func TestFtTokenCMPTargetedDrops(t *testing.T) {
	for _, typ := range append(msg.TokenTypes(), msg.AckO, msg.AckBD, msg.OwnershipPing, msg.NackO, msg.UnblockPing) {
		typ := typ
		t.Run(typ.String(), func(t *testing.T) {
			for _, nth := range []uint64{1, 3, 10} {
				cfg := smallConfig(FtTokenCMP)
				cfg.OpsPerCore = 150
				cfg.Limit = 50_000_000
				inj := fault.NewNthOfType(typ, nth)
				cfg.Injector = inj
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(workload.Uniform(64, 0.5)); err != nil {
					t.Fatalf("drop %v #%d: %v\n%s", typ, nth, err, s.DumpStuck())
				}
			}
		})
	}
}

func TestFtTokenCMPFaultStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, w := range workload.Suite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			for _, rate := range []int{2000, 10000} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := smallConfig(FtTokenCMP)
					cfg.OpsPerCore = 150
					cfg.Seed = seed
					cfg.Injector = fault.NewRate(rate, seed*977)
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Run(w); err != nil {
						t.Fatalf("rate=%d seed=%d: %v\n%s", rate, seed, err, s.DumpStuck())
					}
				}
			}
		})
	}
}
