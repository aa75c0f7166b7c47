package repro

// Tests for the implemented extensions: the unordered-network mode the
// paper points to in §2, the CRC-based corruption failure model, and the
// AckO-piggybacking ablation.

import (
	"context"
	"testing"
)

func TestUnorderedNetworkFaultFree(t *testing.T) {
	for _, p := range []Protocol{DirCMP, FtDirCMP} {
		cfg := testConfig()
		cfg.Protocol = p
		cfg.UnorderedNetwork = true
		if _, err := Run(cfg, "uniform"); err != nil {
			t.Fatalf("%v on adaptive routing: %v", p, err)
		}
	}
}

func TestUnorderedNetworkUnderFaults(t *testing.T) {
	for _, rate := range []int{2000, 20000} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := testConfig()
			cfg.UnorderedNetwork = true
			cfg.Seed = seed
			cfg.FaultRatePerMillion = rate
			cfg.FaultSeed = seed * 131
			res, err := Run(cfg, "uniform")
			if err != nil {
				t.Fatalf("rate=%d seed=%d: %v", rate, seed, err)
			}
			if rate > 0 && res.Dropped == 0 {
				t.Fatalf("rate=%d dropped nothing", rate)
			}
		}
	}
}

func TestUnorderedNetworkAllWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		cfg := testConfig()
		cfg.UnorderedNetwork = true
		cfg.OpsPerCore = 120
		cfg.FaultRatePerMillion = 5000
		cfg.FaultSeed = 9
		if _, err := Run(cfg, w); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func TestCorruptionModeEquivalentToDrop(t *testing.T) {
	// The corruption realization must behave exactly like dropping: same
	// deterministic loss decisions, same completion, invariants intact.
	drop := testConfig()
	drop.FaultRatePerMillion = 3000
	drop.FaultSeed = 77
	corrupt := drop
	corrupt.CorruptInsteadOfDrop = true

	a, err := Run(drop, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(corrupt, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if a.Dropped != b.Dropped || a.Cycles != b.Cycles {
		t.Fatalf("corruption mode diverged: dropped %d vs %d, cycles %d vs %d",
			a.Dropped, b.Dropped, a.Cycles, b.Cycles)
	}
}

func TestPiggybackAblationAddsMessages(t *testing.T) {
	on := testConfig()
	off := testConfig()
	off.DisableAckOPiggyback = true

	resOn, err := Run(on, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := Run(off, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if resOff.PiggybackedAcksO != 0 {
		t.Fatalf("ablation still piggybacked %d AckO", resOff.PiggybackedAcksO)
	}
	if resOn.PiggybackedAcksO == 0 {
		t.Fatal("baseline never piggybacked")
	}
	if resOff.Messages <= resOn.Messages {
		t.Fatalf("standalone AckO should add messages: %d vs %d",
			resOff.Messages, resOn.Messages)
	}
	// The ablation adds one 8-byte message per formerly-piggybacked AckO.
	extra := resOff.Messages - resOn.Messages
	if extra < uint64(float64(resOn.PiggybackedAcksO)*0.8) {
		t.Fatalf("expected ~%d extra messages, got %d", resOn.PiggybackedAcksO, extra)
	}
}

func TestPiggybackAblationUnderFaults(t *testing.T) {
	cfg := testConfig()
	cfg.DisableAckOPiggyback = true
	cfg.FaultRatePerMillion = 5000
	cfg.FaultSeed = 3
	if _, err := Run(cfg, "migratory"); err != nil {
		t.Fatalf("ablated protocol broke under faults: %v", err)
	}
}

func TestDetailedNetworkFaultFree(t *testing.T) {
	for _, p := range []Protocol{DirCMP, FtDirCMP} {
		cfg := testConfig()
		cfg.Protocol = p
		cfg.DetailedNetwork = true
		if _, err := Run(cfg, "uniform"); err != nil {
			t.Fatalf("%v on detailed routers: %v", p, err)
		}
	}
}

func TestDetailedNetworkUnderFaults(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := testConfig()
		cfg.DetailedNetwork = true
		cfg.Seed = seed
		cfg.FaultRatePerMillion = 5000
		cfg.FaultSeed = seed * 17
		if _, err := Run(cfg, "hotspot"); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestDetailedNetworkTinyBuffers(t *testing.T) {
	cfg := testConfig()
	cfg.DetailedNetwork = true
	cfg.RouterBufferFlits = 5 // exactly one data message
	cfg.OpsPerCore = 150
	res, err := Run(cfg, "hotspot")
	if err != nil {
		t.Fatal(err)
	}
	relaxed := cfg
	relaxed.RouterBufferFlits = 256
	res2, err := Run(relaxed, "hotspot")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < res2.Cycles {
		t.Fatalf("tiny buffers ran faster: %d vs %d cycles", res.Cycles, res2.Cycles)
	}
}

func TestDetailedRejectsUnordered(t *testing.T) {
	cfg := testConfig()
	cfg.DetailedNetwork = true
	cfg.UnorderedNetwork = true
	if _, err := Run(cfg, "uniform"); err == nil {
		t.Fatal("detailed+adaptive accepted (not deadlock-free)")
	}
}

func TestFigure4ShapeHoldsOnDetailedNetwork(t *testing.T) {
	// Cross-model validation: the paper's network-overhead result must not
	// be an artifact of the simple link model. On the detailed
	// (finite-buffer, credit-backpressure) routers the overhead ratios
	// must stay in the same bands.
	cfg := testConfig()
	cfg.DetailedNetwork = true
	dir, ft, err := CompareContext(context.Background(), cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	msgOver := ft.MessageOverheadVs(dir)
	byteOver := ft.ByteOverheadVs(dir)
	if msgOver < 1.1 || msgOver > 1.6 {
		t.Errorf("message overhead %.3f outside the expected band", msgOver)
	}
	if byteOver < 1.02 || byteOver > 1.25 {
		t.Errorf("byte overhead %.3f outside the expected band", byteOver)
	}
	if byteOver >= msgOver {
		t.Errorf("byte overhead %.3f not below message overhead %.3f", byteOver, msgOver)
	}
}

func TestTokenProtocolsViaFacade(t *testing.T) {
	for _, p := range []Protocol{TokenCMP, FtTokenCMP} {
		cfg := testConfig()
		cfg.Protocol = p
		res, err := Run(cfg, "uniform")
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Protocol != p.String() || res.Ops == 0 {
			t.Fatalf("%v: bad result %+v", p, res)
		}
	}
}

func TestSection5ComparisonShape(t *testing.T) {
	// §5's qualitative claims, quantified: the token protocol broadcasts
	// every miss, so it moves substantially more messages than the
	// directory protocol; its serial table stays empty without faults.
	cfg := testConfig()
	dir, err := Run(cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = FtTokenCMP
	tok, err := Run(cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if tok.Messages < dir.Messages*5/4 {
		t.Errorf("token protocol should broadcast: %d vs %d messages", tok.Messages, dir.Messages)
	}
	if tok.TokenSerialPeak != 0 || tok.TokenRecreations != 0 {
		t.Errorf("fault-free serial table/recreations: %d/%d", tok.TokenSerialPeak, tok.TokenRecreations)
	}
	// Under faults the serial table populates — the §5 hardware-cost point.
	cfg.FaultRatePerMillion = 10000
	cfg.FaultSeed = 9
	tokF, err := Run(cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if tokF.TokenRecreations == 0 || tokF.TokenSerialPeak == 0 {
		t.Errorf("faults should force recreations (%d) and serial entries (%d)",
			tokF.TokenRecreations, tokF.TokenSerialPeak)
	}
}

func TestTokenProtocolsOnAlternativeNetworks(t *testing.T) {
	// Token coherence never relied on point-to-point ordering (requests
	// are broadcast and retried), so it must work on the adaptive mesh;
	// and on the detailed routers like everything else.
	for _, p := range []Protocol{TokenCMP, FtTokenCMP} {
		cfg := testConfig()
		cfg.Protocol = p
		cfg.OpsPerCore = 150
		cfg.UnorderedNetwork = true
		if _, err := Run(cfg, "uniform"); err != nil {
			t.Errorf("%v on adaptive routing: %v", p, err)
		}
		cfg = testConfig()
		cfg.Protocol = p
		cfg.OpsPerCore = 150
		cfg.DetailedNetwork = true
		if _, err := Run(cfg, "uniform"); err != nil {
			t.Errorf("%v on detailed routers: %v", p, err)
		}
	}
	// And with loss on top of reordering for the fault-tolerant one.
	cfg := testConfig()
	cfg.Protocol = FtTokenCMP
	cfg.OpsPerCore = 150
	cfg.UnorderedNetwork = true
	cfg.FaultRatePerMillion = 5000
	cfg.FaultSeed = 4
	if _, err := Run(cfg, "uniform"); err != nil {
		t.Errorf("FtTokenCMP with loss + reordering: %v", err)
	}
}
