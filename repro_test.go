package repro

import (
	"context"
	"strings"
	"testing"
)

// testConfig shrinks the default system for fast tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MeshWidth = 2
	cfg.MeshHeight = 2
	cfg.MemControllers = 2
	cfg.L1Size = 4 * 1024
	cfg.L2BankSize = 16 * 1024
	cfg.OpsPerCore = 200
	return cfg
}

func TestRunFaultFree(t *testing.T) {
	for _, p := range []Protocol{DirCMP, FtDirCMP} {
		cfg := testConfig()
		cfg.Protocol = p
		res, err := Run(cfg, "uniform")
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Protocol != p.String() {
			t.Errorf("protocol = %q, want %q", res.Protocol, p)
		}
		if res.Cycles == 0 || res.Ops == 0 || res.Messages == 0 {
			t.Errorf("%v: empty result %+v", p, res)
		}
		if !strings.Contains(res.ReportText, p.String()) {
			t.Errorf("report missing protocol name: %q", res.ReportText)
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(testConfig(), "nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

// TestRunUnknownProtocol: a Protocol outside the four is an error, not a
// run of some other protocol under its own label.
func TestRunUnknownProtocol(t *testing.T) {
	for _, p := range []Protocol{0, 5, 9} {
		cfg := testConfig()
		cfg.Protocol = p
		if res, err := Run(cfg, "uniform"); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
			t.Errorf("Protocol(%d): err = %v, result %v, want an unknown-protocol error", int(p), err, res != nil)
		}
	}
}

func TestParseProtocol(t *testing.T) {
	for _, p := range []Protocol{DirCMP, FtDirCMP, TokenCMP, FtTokenCMP} {
		for _, name := range []string{p.String(), strings.ToLower(p.String()), strings.ToUpper(p.String())} {
			if got, err := ParseProtocol(name); err != nil || got != p {
				t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, p)
			}
		}
	}
	for _, name := range []string{"", "dir", "Protocol(9)", "ftdircmp "} {
		if _, err := ParseProtocol(name); err == nil {
			t.Errorf("ParseProtocol(%q) accepted an unknown name", name)
		}
	}
}

func TestCompareFaultFreeOverheadIsSmall(t *testing.T) {
	dir, ft, err := CompareContext(context.Background(), testConfig(), "uniform")
	if err != nil {
		t.Fatal(err)
	}
	// §4.2: "the execution time does not increase" (allow a small margin —
	// the ownership handshake adds traffic that can perturb timing).
	if ratio := ft.TimeOverheadVs(dir); ratio > 1.10 {
		t.Errorf("fault-free execution-time overhead %.3f > 1.10", ratio)
	}
	if ft.Messages <= dir.Messages {
		t.Error("FtDirCMP should send more messages (ownership acks)")
	}
	msgOver := ft.MessageOverheadVs(dir)
	byteOver := ft.ByteOverheadVs(dir)
	// Figure 4 shape: byte overhead is much smaller than message overhead
	// because the extra messages are small control acknowledgments.
	if byteOver >= msgOver {
		t.Errorf("byte overhead %.3f should be below message overhead %.3f", byteOver, msgOver)
	}
}

func TestFaultSweepDegradesGracefully(t *testing.T) {
	cfg := testConfig()
	results, err := FaultSweepContext(context.Background(), cfg, "uniform", []int{0, 500, 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Dropped != 0 {
		t.Error("rate 0 dropped messages")
	}
	if results[2].Dropped == 0 {
		t.Error("rate 2000 dropped nothing")
	}
	if results[2].RequestsReissued == 0 && results[2].LostUnblockTimeouts == 0 {
		t.Error("no recovery activity under faults")
	}
}

func TestCheckRecoveryAllTypes(t *testing.T) {
	cfg := testConfig()
	cfg.OpsPerCore = 150
	for _, typ := range MessageTypes() {
		out, err := CheckRecoveryContext(context.Background(), cfg, "uniform", typ, 3)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if !out.Recovered {
			t.Errorf("%s: protocol did not recover: %v", typ, out.Err)
		}
	}
}

func TestWorkloadsListed(t *testing.T) {
	names := Workloads()
	if len(names) < 8 {
		t.Fatalf("expected >=8 workloads, got %v", names)
	}
	for _, n := range names {
		cfg := testConfig()
		cfg.OpsPerCore = 60
		if _, err := Run(cfg, n); err != nil {
			t.Errorf("workload %s: %v", n, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.FaultRatePerMillion = 1000
	cfg.FaultSeed = 99
	a, err := Run(cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Messages != b.Messages || a.Dropped != b.Dropped {
		t.Errorf("runs differ: %d/%d/%d vs %d/%d/%d",
			a.Cycles, a.Messages, a.Dropped, b.Cycles, b.Messages, b.Dropped)
	}
}
