package repro

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/workload"
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

// TestCoverageReuseMatchesFresh: a message-loss campaign runs every slot
// on a campaign worker's one system and recorder, reset with the slot's
// injector, and each run must reach exactly the Outcome a fresh system
// and recorder reach: cycles, memory hash, timeouts by kind, faults
// injected and recovered, the largest recovery latency and the error text.
// DirCMP's deadlock dumps name each stuck line's last recorded event, so
// stale events left in the ring would show in its error text. Both
// campaigns run at parallelism 1, so each calls its RunFunc in the same
// order: the census, every slot of the quick single-loss golden, then (for
// FtDirCMP) 24 sampled double faults.
func TestCoverageReuseMatchesFresh(t *testing.T) {
	w, err := workload.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	dir := quickCoverageConfig()
	dir.Protocol = DirCMP
	dir.CycleLimit = 5_000_000 // as ftcheck -exhaustive: DirCMP may spin until the limit
	for _, tc := range []struct {
		cfg     Config
		doubles int
	}{
		{quickCoverageConfig(), 24},
		{dir, 0},
	} {
		t.Run(tc.cfg.Protocol.String(), func(t *testing.T) {
			ctx := context.Background()
			cfg := tc.cfg
			cfg.Parallelism = 1
			campaign := func(run coverage.RunFunc) []coverage.Outcome {
				var outs []coverage.Outcome
				record := func(inj fault.Injector) coverage.Outcome {
					out := run(inj)
					outs = append(outs, out)
					return out
				}
				if _, err := coverage.RunContext(ctx, record, coverage.Options{
					Parallelism:        1,
					DoubleFaultSamples: tc.doubles,
					Seed:               1,
				}); err != nil {
					t.Fatal(err)
				}
				return outs
			}
			reused := campaign(coverageRun(ctx, cfg, w))
			fresh := campaign(freshCoverageRun(ctx, cfg, w, false))
			if len(reused) != len(fresh) {
				t.Fatalf("the reused worker ran %d runs, fresh systems %d", len(reused), len(fresh))
			}
			failed, dumps := 0, 0
			for i := range fresh {
				if fresh[i].Err != "" {
					failed++
				}
				if strings.Contains(fresh[i].Err, " last=") {
					dumps++
				}
				if !reflect.DeepEqual(reused[i], fresh[i]) {
					t.Fatalf("run %d of %d on the reused worker:\n%+v\non a fresh system:\n%+v",
						i, len(fresh), reused[i], fresh[i])
				}
			}
			t.Logf("%d runs, %d failed, %d naming last events, all equal", len(fresh), failed, dumps)
			if tc.cfg.Protocol == DirCMP && dumps == 0 {
				t.Fatal("no DirCMP deadlock dump names a last event: the event ring went unchecked")
			}
		})
	}
}
