package repro

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
)

// quickCoverageConfig is the exhaustive-campaign configuration `make
// coverage-quick` runs: small enough that the full single-loss fault space
// (every injectable message of the run) is a few hundred slots.
func quickCoverageConfig() Config {
	cfg := DefaultConfig()
	cfg.MeshWidth = 2
	cfg.MeshHeight = 2
	cfg.MemControllers = 2
	cfg.L1Size = 8 * 1024
	cfg.L2BankSize = 32 * 1024
	cfg.OpsPerCore = 20
	return cfg
}

// TestCoverageExhaustiveQuick is the headline robustness claim: FtDirCMP
// recovers from every single possible lost message of the quick workload —
// every run terminates, passes the coherence and data-value checks, and
// reproduces the fault-free memory image — while DirCMP recovers from none.
func TestCoverageExhaustiveQuick(t *testing.T) {
	rep, err := Coverage(quickCoverageConfig(), "uniform", CoverageOptions{
		DoubleFaultSamples: 8,
		Seed:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullCoverage() {
		t.Fatalf("FtDirCMP coverage incomplete: %d/%d recovered, failures: %v",
			rep.Recovered, rep.SlotsTested, rep.Failures)
	}
	if rep.TotalSlots < 100 {
		t.Fatalf("suspiciously small fault space: %d slots", rep.TotalSlots)
	}
	for _, df := range rep.DoubleFaults {
		if !df.Recovered {
			t.Errorf("double fault not recovered: %+v", df)
		}
	}

	cfg := quickCoverageConfig()
	cfg.Protocol = DirCMP
	cfg.CycleLimit = 5_000_000
	drep, err := Coverage(cfg, "uniform", CoverageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drep.Recovered != 0 {
		t.Fatalf("DirCMP recovered %d slots; the unprotected baseline must not survive any loss",
			drep.Recovered)
	}
	if drep.TotalFailures != drep.SlotsTested {
		t.Fatalf("DirCMP failures %d != slots tested %d", drep.TotalFailures, drep.SlotsTested)
	}
}

// TestGoldenCoverageReport pins the quick coverage report byte-for-byte —
// table and JSON — and requires it to be identical at every parallelism
// level. Regenerate with `go test -run TestGoldenCoverageReport
// -update-golden .` after an intentional protocol or schema change.
func TestGoldenCoverageReport(t *testing.T) {
	render := func(parallelism int) ([]byte, []byte) {
		cfg := quickCoverageConfig()
		cfg.Parallelism = parallelism
		rep, err := Coverage(cfg, "uniform", CoverageOptions{
			DoubleFaultSamples: 8,
			Seed:               1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return []byte(rep.Table()), js.Bytes()
	}
	tblSerial, jsSerial := render(1)
	tblAll, jsAll := render(0)
	if !bytes.Equal(tblSerial, tblAll) {
		t.Fatalf("coverage table differs between -j 1 and -j 0:\n%s\nvs\n%s", tblSerial, tblAll)
	}
	if !bytes.Equal(jsSerial, jsAll) {
		t.Fatal("coverage JSON differs between -j 1 and -j 0")
	}
	checkGolden(t, "coverage.txt", tblSerial)
	checkGolden(t, "coverage.json", jsSerial)
}

// TestDoubleFaultReissueRegression pins the paper's hardest single-line
// scenario: a request is lost, the lost-request timeout fires, the request
// is reissued — and the reissue is lost too. FtDirCMP must detect and
// reissue again, and the run must pass every check. Both drops hit the same
// line, so the result attributes one fault window per injection on that
// line: two injections, two recoveries.
func TestDoubleFaultReissueRegression(t *testing.T) {
	inj := fault.NewNthOfType(msg.GetX, 3).AlsoDropReissue()
	res, err := RunWithInjectorContext(context.Background(), quickCoverageConfig(), "uniform", inj)
	if err != nil {
		t.Fatalf("double fault (GetX #3 + its reissue) not survived: %v", err)
	}
	if !inj.Fired() {
		t.Fatal("first drop never fired")
	}
	if !inj.SecondFired() {
		t.Fatal("the reissue was never dropped — the scenario did not happen")
	}
	if got := inj.Dropped(); got != 2 {
		t.Fatalf("injector dropped %d messages, want 2", got)
	}
	if res.Dropped != 2 {
		t.Fatalf("network counted %d drops, want 2", res.Dropped)
	}
	if res.FaultsInjected != 2 {
		t.Fatalf("FaultsInjected = %d, want 2 (one per injection)", res.FaultsInjected)
	}
	if res.FaultsRecovered != 2 {
		t.Fatalf("FaultsRecovered = %d, want 2 (both windows on the faulted line closed)",
			res.FaultsRecovered)
	}
	if res.RequestsReissued < 2 {
		t.Fatalf("RequestsReissued = %d, want >= 2 (the reissue itself was reissued)",
			res.RequestsReissued)
	}
	// The memory image must match a fault-free run of the same workload.
	clean, err := Run(quickCoverageConfig(), "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryImageHash != clean.MemoryImageHash {
		t.Fatalf("memory image diverged: %#x != fault-free %#x",
			res.MemoryImageHash, clean.MemoryImageHash)
	}
}
